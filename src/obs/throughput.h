// Throughput/ETA arithmetic for the campaign progress line.
//
// The per-campaign ProgressReporter (src/sim/campaign.cc, --progress)
// answers three questions — how fast, how far, how much longer — from
// three inputs: items done, items total, seconds elapsed. This header is
// that zero-guarded arithmetic; the reporter owns only pacing and
// formatting.
#pragma once

#include <cstdint>
#include <string>

namespace icr::obs {

struct Throughput {
  double rate = 0.0;          // items/sec; 0 until the clock has advanced
  double percent = 100.0;     // done/total as 0..100; 100 for an empty total
  double eta_seconds = -1.0;  // negative = unknown (no rate yet)

  [[nodiscard]] bool eta_known() const noexcept { return eta_seconds >= 0.0; }
};

// rate = done/elapsed (0 when elapsed <= 0); ETA = remaining/rate, unknown
// until the rate is positive (and when done overshoots total).
[[nodiscard]] Throughput estimate_throughput(std::uint64_t done,
                                             std::uint64_t total,
                                             double elapsed_seconds) noexcept;

// "ETA 42s" when known, "ETA --" when not, "done" for a final line.
[[nodiscard]] std::string format_eta(const Throughput& t,
                                     bool final_line = false);

// Simulated MIPS: done * instructions_per_item / elapsed / 1e6, zero-guarded
// like the rate above.
[[nodiscard]] double simulated_mips(std::uint64_t done,
                                    std::uint64_t instructions_per_item,
                                    double elapsed_seconds) noexcept;

}  // namespace icr::obs
