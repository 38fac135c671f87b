// Generic set-associative cache (tags + LRU only, no data payload).
//
// Used for the instruction L1 and the unified L2, where only hit/miss timing
// and writeback traffic matter. The data L1 with ICR replication keeps real
// data payloads and lives in src/core/icr_cache.h.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/cache_geometry.h"
#include "src/util/counter_table.h"

namespace icr::mem {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] double miss_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }

  static constexpr util::CounterRow<CacheStats> kCounters[] = {
      {"accesses", &CacheStats::accesses},
      {"hits", &CacheStats::hits},
      {"misses", &CacheStats::misses},
      {"evictions", &CacheStats::evictions},
      {"writebacks", &CacheStats::writebacks},
  };
};
static_assert(util::table_covers<CacheStats>());

class SetAssocCache {
 public:
  explicit SetAssocCache(CacheGeometry geometry);

  struct AccessResult {
    bool hit = false;
    // Block address written back to the next level (dirty eviction), if any.
    std::optional<std::uint64_t> writeback;
  };

  // Looks up `addr`; on miss, allocates the block (write-allocate), evicting
  // the LRU way. `is_write` marks the line dirty (write-back policy).
  AccessResult access(std::uint64_t addr, bool is_write, std::uint64_t cycle);

  // Tag check without state change.
  [[nodiscard]] bool probe(std::uint64_t addr) const noexcept;

  // Drops the block if present; returns true if it was dirty.
  bool invalidate(std::uint64_t addr) noexcept;

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheGeometry& geometry() const noexcept {
    return geometry_;
  }

 private:
  struct TagLine {
    bool valid = false;
    bool dirty = false;
    std::uint64_t block_addr = 0;
    std::uint64_t lru_stamp = 0;
  };

  [[nodiscard]] TagLine* find(std::uint64_t block_addr) noexcept;
  [[nodiscard]] const TagLine* find(std::uint64_t block_addr) const noexcept;

  CacheGeometry geometry_;
  std::vector<TagLine> lines_;  // sets * ways, row-major by set
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;
};

}  // namespace icr::mem
