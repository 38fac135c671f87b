// Transient-fault injection into the dL1 data arrays (paper §5.5).
//
// Errors are injected with a constant per-cycle probability; each injection
// flips real stored bits in a randomly chosen valid line, so detection and
// recovery are exercised end-to-end by the parity/ECC/replica machinery.
// The four models follow Kim & Somani's cache error taxonomy as cited by
// the paper:
//   kRandom   — one random bit of one random word in the cache
//   kAdjacent — two horizontally adjacent bits within the same byte/word
//               (a double-bit burst: parity at byte granularity misses the
//               pair when both flips fall in one byte; SEC-DED detects but
//               cannot correct it)
//   kColumn   — the same bit position in two vertically adjacent ways
//               (a bitline defect: two independent single-bit errors in two
//               different lines)
//   kDirect   — a strike to one fixed "weak cell" column: a single bit flip
//               whose bit position is constant across injections
#pragma once

#include <cstdint>

#include "src/core/icr_cache.h"
#include "src/obs/event_trace.h"
#include "src/util/counter_table.h"
#include "src/util/rng.h"

namespace icr::fault {

enum class FaultModel : std::uint8_t { kRandom, kAdjacent, kColumn, kDirect };

[[nodiscard]] const char* to_string(FaultModel model) noexcept;

struct FaultStats {
  std::uint64_t injections = 0;     // injection events
  std::uint64_t bits_flipped = 0;   // total bit flips applied
  std::uint64_t skipped_empty = 0;  // events with no valid line to hit

  // Per-outcome verdicts, recorded when a load first observes corrupted
  // data (record_outcome). An injection whose line is overwritten or
  // evicted before any load sees it never receives a verdict, so the four
  // outcome counters sum to the *observed* errors, not to `injections`.
  std::uint64_t corrected = 0;               // ECC / refetch / rcache
  std::uint64_t replica_recovered = 0;       // clean in-cache replica
  std::uint64_t detected_uncorrectable = 0;  // detected, data lost
  std::uint64_t silent = 0;                  // wrong value, undetected

  [[nodiscard]] std::uint64_t observed() const noexcept {
    return corrected + replica_recovered + detected_uncorrectable + silent;
  }

  static constexpr util::CounterRow<FaultStats> kCounters[] = {
      {"injections", &FaultStats::injections},
      {"bits_flipped", &FaultStats::bits_flipped},
      {"skipped_empty", &FaultStats::skipped_empty},
      {"corrected", &FaultStats::corrected},
      {"replica_recovered", &FaultStats::replica_recovered},
      {"detected_uncorrectable", &FaultStats::detected_uncorrectable},
      {"silent", &FaultStats::silent},
  };
};
static_assert(util::table_covers<FaultStats>());

class FaultInjector {
 public:
  // `probability` is the per-cycle chance of one injection event.
  FaultInjector(FaultModel model, double probability, Rng rng) noexcept;

  // Called once per simulated cycle; possibly injects into `cache`.
  void tick(core::IcrCache& cache, std::uint64_t cycle) {
    if (next_injection(cycle, cycle + 1) == cycle) inject_once(cache, cycle);
  }

  // The draws tick() makes for the cycles from `first_cycle` on, up to the
  // first cycle that injects: returns that cycle, which the caller owes an
  // inject_once() before any later draw. Returns `end_cycle`, with no draw
  // for it, when no earlier cycle injects. The draws depend on nothing but
  // the generator, so a caller may make them ahead of the cache activity
  // of those cycles.
  [[nodiscard]] std::uint64_t next_injection(std::uint64_t first_cycle,
                                             std::uint64_t end_cycle) {
    for (std::uint64_t cycle = first_cycle; cycle < end_cycle; ++cycle) {
      if (strikes_(rng_)) return cycle;
    }
    return end_cycle;
  }

  // Forces one injection event immediately (test hook / campaigns).
  void inject_once(core::IcrCache& cache, std::uint64_t cycle = 0);

  // Classified consequence of an observed error, reported by the load path
  // (Pipeline::verify_load): bumps the per-outcome counter and emits a
  // kFaultVerdict event.
  void record_outcome(obs::FaultVerdict verdict, std::uint64_t cycle,
                      std::uint64_t word_addr) noexcept;

  // Starts emitting kFaultInject events into `trace`; may be null.
  void attach_observability(obs::EventTrace* trace) noexcept { trace_ = trace; }

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] FaultModel model() const noexcept { return model_; }
  [[nodiscard]] double probability() const noexcept { return probability_; }

 private:
  // Picks a uniformly random valid (set, way); false if the cache is empty.
  bool pick_valid_line(const core::IcrCache& cache, std::uint32_t& set,
                       std::uint32_t& way);

  FaultModel model_;
  double probability_;
  Bernoulli strikes_;  // one draw per cycle: Rng::bernoulli(probability_)
  Rng rng_;
  FaultStats stats_;
  std::uint32_t direct_bit_ = 0;   // fixed column for kDirect
  std::uint32_t direct_byte_ = 0;  // fixed byte offset for kDirect
  obs::EventTrace* trace_ = nullptr;
};

}  // namespace icr::fault
