// R-Cache: the Kim & Somani-style "area-efficient information integrity"
// baseline the paper compares against conceptually ([11, 12]): a small
// separate structure that duplicates recently *written* words so that a
// parity error on a dirty dL1 line can be recovered without ECC.
//
// The paper's §5.2 point is that ICR achieves the same duplication of the
// hot data "automatically ... we do not need a separate cache" — this
// module exists so the claim can be measured: bench/baseline_rcache.cc
// pits BaseP, BaseP+R-Cache and ICR-P-PS(S) against each other under fault
// injection.
//
// Model: a fully-associative, LRU, word-granularity duplication buffer.
// Every committed store deposits (word address, value, parity). On a dirty
// parity error the dL1 consults it; a hit recovers the word. Capacity is
// the knob: Kim & Somani report good hit rates with very small structures
// because of write locality.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/counter_table.h"

namespace icr::baselines {

struct RCacheStats {
  std::uint64_t writes = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t recoveries = 0;  // hits that repaired a dirty parity error

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  static constexpr util::CounterRow<RCacheStats> kCounters[] = {
      {"writes", &RCacheStats::writes},
      {"lookups", &RCacheStats::lookups},
      {"hits", &RCacheStats::hits},
      {"recoveries", &RCacheStats::recoveries},
  };
};
static_assert(util::table_covers<RCacheStats>());

class RCache {
 public:
  explicit RCache(std::uint32_t entries);

  // Records the word written by a store (duplicate-on-write policy).
  void record(std::uint64_t addr, std::uint64_t value);

  // Returns the duplicated value for the word at `addr`, if present; marks
  // the entry as used. `for_recovery` additionally counts a recovery.
  [[nodiscard]] std::optional<std::uint64_t> lookup(std::uint64_t addr,
                                                    bool for_recovery);

  // Drops the entry for `addr` (e.g. the block left the hierarchy).
  void invalidate(std::uint64_t addr) noexcept;

  [[nodiscard]] const RCacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t word_addr = 0;
    std::uint64_t value = 0;
    std::uint64_t lru = 0;
  };

  [[nodiscard]] Entry* find(std::uint64_t word_addr) noexcept;

  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  RCacheStats stats_;
};

}  // namespace icr::baselines
