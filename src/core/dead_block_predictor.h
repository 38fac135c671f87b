// Decay-counter dead-block prediction (Kaxiras et al., ISCA 2001), as used
// by the paper (§2): each cache line carries a 2-bit saturating counter that
// is incremented at every global timer tick and reset by any access to the
// line. When the counter saturates the block is declared dead and its space
// may be recycled to hold replicas.
//
// The timer tick period is decay_window / 4, so a line is dead once roughly
// `decay_window` cycles have elapsed since its last access (four ticks of a
// 2-bit counter). A window of zero is the paper's "aggressive" setting: a
// block is dead as soon as its access completes, i.e. any line not accessed
// in the current cycle is a replica candidate.
//
// The counters are evaluated lazily from per-line last-access timestamps;
// this is arithmetically identical to materialised counters (verified by
// unit test) and costs no per-tick sweep.
#pragma once

#include <cstdint>

#include "src/util/counter_table.h"

namespace icr::core {

struct DbpStats {
  std::uint64_t queries = 0;           // is_dead evaluations
  std::uint64_t dead_predictions = 0;  // queries answering "dead"

  static constexpr util::CounterRow<DbpStats> kCounters[] = {
      {"queries", &DbpStats::queries},
      {"dead_predictions", &DbpStats::dead_predictions},
  };
};
static_assert(util::table_covers<DbpStats>());

class DeadBlockPredictor {
 public:
  explicit DeadBlockPredictor(std::uint64_t decay_window = 0) noexcept;

  // The 2-bit counter value a line last touched at `last_access` would show
  // at time `now` (saturates at kSaturated).
  [[nodiscard]] std::uint32_t counter_value(std::uint64_t last_access,
                                            std::uint64_t now) const noexcept;

  // True iff the line is predicted dead at `now`.
  [[nodiscard]] bool is_dead(std::uint64_t last_access,
                             std::uint64_t now) const noexcept;

  [[nodiscard]] const DbpStats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::uint64_t decay_window() const noexcept { return window_; }
  [[nodiscard]] std::uint64_t tick_period() const noexcept { return tick_; }

  // Counter value at which a block is declared dead (2-bit counter that has
  // been incremented through its full range).
  static constexpr std::uint32_t kSaturated = 4;

 private:
  std::uint64_t window_;
  std::uint64_t tick_;  // window / 4, min 1 (unused when window == 0)
  // Diagnostics only — mutable so the logically-const predicate can count
  // its own invocations without perturbing any caller.
  mutable DbpStats stats_;
};

}  // namespace icr::core
