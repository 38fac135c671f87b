// Event-driven ACE-style lifetime tracker for the ICR dL1.
//
// The tracker mirrors the cache's resident primary lines and integrates
// per-word strike exposure *lazily*: a global accumulator A(t) advances by
// 1/V(t) per cycle (V = valid lines, replicas included) and is brought up
// to date only at cache events, so there is no per-cycle work and zero
// overhead when the tracker is not attached (the same contract as
// src/obs). All hooks are called from core::IcrCache behind null checks.
//
// Exposure bookkeeping per resident word:
//   e_cov — unobserved strike mass accrued while a clean replica of the
//           word existed (stores refresh primary and replicas together, so
//           replicas stay in sync until the next strike);
//   e_unc — mass with no clean replica copy: accrued unreplicated, or
//           demoted from e_cov when the last replica was victimized
//           (replicas created *after* a strike copy the corrupted data and
//           its stale parity, so they can never supply a clean word —
//           that is why creation does not promote e_unc to e_cov);
//   c     — standing wrong-value mass: the word's architectural cache value
//           differs from golden memory while its protection is consistent,
//           so every consuming load yields one silent verdict.
//
// A read classifies the word's accumulated mass exactly like a load's pass
// down the recovery ladder, IcrCache::repair_word: parity regime sends e_cov
// to replica recovery and e_unc to refetch (clean) or detected-uncorrectable
// (dirty, where it converts to standing silent mass); the SEC-DED regime
// corrects everything at first order. Dirty evictions deposit c + e into a
// per-word pending map — the write-back path stores whatever bits the line
// holds, verifying nothing — and later fills of the block resurrect the
// mass as c (error laundering). First-order model: terms of order p^2
// (double strikes on one word, adjacent/column burst models) are out of
// scope and documented in docs/RELIABILITY.md.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/rel/rel_model.h"

namespace icr::rel {

// Per-cell reliability-analysis options. Deliberately excluded from
// campaign_config_hash: enabling the tracker never changes simulated
// behaviour (tier-1 guard in tests/rel_tracker_test.cc).
struct RelOptions {
  bool enabled = false;
  // Per-cycle strike probability used for the evaluated columns of the
  // exports; 0 keeps exports to the raw coefficients.
  double probability = 0.0;
  double clock_ghz = 1.0;  // for FIT-style conversions

  [[nodiscard]] bool any() const noexcept { return enabled; }
};

class RelTracker {
 public:
  struct Config {
    std::uint32_t words_per_line = 8;
    bool scheme_parity = true;    // unreplicated lines parity (vs SEC-DED)
    bool write_through = false;   // stores refresh the backing word too
    bool model_supported = true;  // false for non-uniform fault models
    double probability = 0.0;
    double clock_ghz = 1.0;
  };

  explicit RelTracker(const Config& config);

  // ---- hooks (called by core::IcrCache; `block` is the block address) ----
  void on_fill(std::uint64_t block, std::uint32_t replica_count,
               std::uint64_t cycle);
  void on_evict(std::uint64_t block, bool dirty, std::uint64_t cycle);
  void on_replica_create(std::uint64_t block, std::uint64_t cycle);
  void on_replica_evict(std::uint64_t block, std::uint64_t cycle);
  void on_read(std::uint64_t block, std::uint32_t word, bool dirty,
               bool parity_regime, std::uint64_t cycle);
  void on_write(std::uint64_t block, std::uint32_t word, bool dirty_after,
                std::uint64_t cycle);
  // Error-recovery repairs (only reachable under fault injection, where the
  // analytical integrals are diagnostics rather than predictions).
  void on_repair_word(std::uint64_t block, std::uint32_t word,
                      std::uint64_t cycle);
  void on_refetch(std::uint64_t block, std::uint64_t cycle);
  // Scrubber visit: periodic cleansing removes recoverable exposure even
  // when the visit finds nothing (that is its analytical effect).
  void on_scrub_visit(std::uint64_t block, bool dirty, bool parity_regime,
                      std::uint64_t cycle);

  // Snapshot of the integrals up to `end_cycle`. Deterministic: residents
  // and pending mass are folded in sorted address order.
  [[nodiscard]] RelReport report(std::uint64_t end_cycle) const;

  [[nodiscard]] std::uint64_t valid_lines() const noexcept {
    return valid_lines_;
  }

 private:
  struct Word {
    double mark_a = 0.0;          // A snapshot at last accrual flush
    std::uint64_t mark_cycle = 0;
    double e_cov = 0.0;
    double e_unc = 0.0;
    double c = 0.0;
    IntervalStart start = IntervalStart::kFill;
    double seg_cycles[kRelStates] = {};
    double seg_exposure[kRelStates] = {};
  };

  struct Line {
    std::uint32_t replica_count = 0;
    bool dirty = false;
    std::vector<Word> words;
  };

  struct ClassCell {
    std::uint64_t count = 0;
    double cycles = 0.0;
    double exposure = 0.0;
  };

  void advance(std::uint64_t cycle) noexcept;
  [[nodiscard]] std::size_t state_index(const Line& line) const noexcept;
  void flush_word(Line& line, Word& word, std::uint64_t cycle);
  void flush_line(Line& line, std::uint64_t cycle);
  void close_interval(Line& line, Word& word, IntervalEnd end,
                      std::uint64_t cycle, IntervalStart next_start);
  void resync_dirty(Line& line, bool dirty, std::uint64_t cycle);
  [[nodiscard]] double pending_mass(std::uint64_t word_addr) const;
  void set_pending(std::uint64_t word_addr, double mass);

  RelReport finalize(std::uint64_t end_cycle);

  Config config_;
  std::uint64_t valid_lines_ = 0;  // primaries + replicas
  double a_ = 0.0;                 // integral of 1/V over cycles
  std::uint64_t a_cycle_ = 0;

  std::unordered_map<std::uint64_t, Line> lines_;     // block -> primary
  std::unordered_map<std::uint64_t, double> pending_; // word addr -> mass

  double word_cycles_ = 0.0;
  double total_exposure_ = 0.0;
  double state_cycles_[kRelStates] = {};
  double state_exposure_[kRelStates] = {};
  double corrected_coef_ = 0.0;
  double replica_coef_ = 0.0;
  double detected_coef_ = 0.0;
  double silent_coef_ = 0.0;
  double scrub_coef_ = 0.0;
  double unobserved_coef_ = 0.0;
  double deposited_coef_ = 0.0;
  ClassCell cells_[kIntervalStarts][kIntervalEnds][kRelStates];
};

}  // namespace icr::rel
