// Checkpointed warmup + SimPoint-style interval sampling.
//
// Every campaign cell used to simulate its full instruction budget in the
// detailed out-of-order model, from a cold cache. This controller makes
// long budgets affordable by simulating only representative chunks:
//
//   * Checkpointed warmup — the first W instructions run in the cheap
//     functional mode (Pipeline::fast_forward): dL1/L2/L1I contents, decay
//     counters, branch predictor and fault state all advance, but no OoO
//     cycles are modelled and nothing is measured. Measurement starts from
//     a warm checkpoint instead of a cold cache.
//   * Interval sampling — K measurement windows at deterministic offsets
//     inside the post-warmup region (systematic placement, or seeded-random
//     placement from the campaign's SplitMix64 stream). Windows run in the
//     detailed model; the gaps between them fast-forward functionally.
//
// Measurement is snapshot-and-subtract: a full RunResult snapshot brackets
// each window and the counter-level delta (metrics.h visit order) is the
// window's contribution. Whole-run estimates are reconstructed by weighting
// each window delta by the share of the budget it represents — window j
// stands for the region from the midpoint before it to the midpoint after
// it, so the spans partition [0, budget) exactly and a piecewise-constant
// metric is reconstructed exactly (property-tested). One window covering
// the whole budget has weight exactly 1.0, which makes full-coverage
// sampling bit-identical to an unsampled run (golden-tested).
//
// Everything is deterministic in (options, budget): window placement is
// pure arithmetic plus an explicit seed, and the functional clock advances
// at the CPI measured so far in exact fixed-point. Sampled campaigns are
// therefore bit-identical at any thread count, like unsampled ones.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/metrics.h"

namespace icr::sim {

class Simulator;

enum class SampleMode : std::uint8_t {
  kSystematic,  // evenly spaced windows across the measured region
  kRandom,      // seeded-random placement (sorted, non-overlapping)
};

[[nodiscard]] const char* to_string(SampleMode mode) noexcept;

struct SamplingOptions {
  // Instructions fast-forwarded functionally before measurement begins.
  std::uint64_t warmup_instructions = 0;
  // Measurement windows. 0 = no interval sampling: everything after warmup
  // is measured in one window (warmup-only mode).
  std::uint32_t windows = 0;
  // Instructions per window. 0 = auto: a tenth of the measured region
  // split across the windows, i.e. (budget - warmup) / (10 * windows).
  std::uint64_t window_width = 0;
  SampleMode mode = SampleMode::kSystematic;
  // Placement stream for kRandom; campaigns derive a per-cell seed from
  // this and the cell coordinates (see campaign.cc).
  std::uint64_t seed = 0x5A3D11ULL;

  [[nodiscard]] bool enabled() const noexcept {
    return warmup_instructions > 0 || windows > 0;
  }
};

// Half-open measurement window [begin, end) in absolute committed
// instructions, plus the number of budget instructions it represents in
// the reconstruction (the spans of a plan partition [0, budget)).
struct SampleWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t span = 0;

  [[nodiscard]] std::uint64_t width() const noexcept { return end - begin; }
};

// Narrowest window the planner will emit. The detailed->functional drain
// can overshoot a window boundary by the in-flight capacity (~33
// instructions for the Table-1 core); a wider floor keeps every window
// measurable.
inline constexpr std::uint64_t kMinWindowWidth = 64;

// Deterministic window plan for `budget` instructions: sorted,
// non-overlapping, inside [min(warmup, budget-1), budget), every window at
// least kMinWindowWidth wide (window count is reduced before width when the
// region cannot fit the request), spans partitioning [0, budget).
// Empty only when budget == 0.
[[nodiscard]] std::vector<SampleWindow> plan_windows(
    std::uint64_t budget, const SamplingOptions& options);

// What a sampled run actually did — exported as provenance next to the
// estimated metrics (results_io.cc) so sampled rows are never mistaken for
// full measurements.
struct SampleProvenance {
  bool sampled = false;
  std::uint64_t budget = 0;                 // instructions covered
  std::uint64_t warmup_instructions = 0;    // functional warmup
  std::uint32_t windows = 0;                // measurement windows executed
  std::uint64_t measured_instructions = 0;  // detailed instructions

  // Fraction of the budget simulated in the detailed model.
  [[nodiscard]] double coverage() const noexcept {
    return budget == 0 ? 1.0
                       : static_cast<double>(measured_instructions) /
                             static_cast<double>(budget);
  }
};

struct SampledRunResult {
  RunResult estimate;  // whole-run reconstruction (exact when unsampled)
  SampleProvenance provenance;
  std::vector<SampleWindow> windows;  // the executed plan
};

// Drives one simulation through warmup, windows and gaps.
class SamplingController {
 public:
  SamplingController(Simulator& simulator, const SamplingOptions& options);

  // Executes the plan over `budget` instructions and reconstructs the
  // whole-run estimate. With options.enabled() == false this is a plain
  // passthrough: one detailed run of the full budget, result returned
  // untouched (bit-identical to not using the controller at all).
  [[nodiscard]] SampledRunResult run(std::uint64_t budget);

 private:
  Simulator& simulator_;
  SamplingOptions options_;
};

}  // namespace icr::sim
