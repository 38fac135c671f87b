#include "src/mem/set_assoc_cache.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace icr::mem {

SetAssocCache::SetAssocCache(CacheGeometry geometry) : geometry_(geometry) {
  geometry_.validate();
  lines_.resize(static_cast<std::size_t>(geometry_.num_sets()) *
                geometry_.associativity);
}

SetAssocCache::TagLine* SetAssocCache::find(std::uint64_t block_addr) noexcept {
  // Branch-free over up to 64 ways at a time: which one hits is
  // data-dependent. A block is resident at most once.
  const std::uint32_t set = geometry_.set_index(block_addr);
  TagLine* base = &lines_[static_cast<std::size_t>(set) * geometry_.associativity];
  const std::uint32_t ways = geometry_.associativity;
  for (std::uint32_t first = 0; first < ways; first += 64) {
    const std::uint32_t end = std::min(ways, first + 64);
    std::uint64_t match = 0;
    for (std::uint32_t w = first; w < end; ++w) {
      const bool hit = base[w].valid & (base[w].block_addr == block_addr);
      match |= static_cast<std::uint64_t>(hit) << (w - first);
    }
    if (match != 0) return &base[first + std::countr_zero(match)];
  }
  return nullptr;
}

const SetAssocCache::TagLine* SetAssocCache::find(
    std::uint64_t block_addr) const noexcept {
  return const_cast<SetAssocCache*>(this)->find(block_addr);
}

SetAssocCache::AccessResult SetAssocCache::access(std::uint64_t addr,
                                                  bool is_write,
                                                  std::uint64_t cycle) {
  (void)cycle;  // LRU uses a monotone access clock, not wall cycles
  const std::uint64_t block = geometry_.block_address(addr);
  ++stats_.accesses;
  ++lru_clock_;

  AccessResult result;
  if (TagLine* line = find(block)) {
    ++stats_.hits;
    line->lru_stamp = lru_clock_;
    line->dirty = line->dirty || is_write;
    result.hit = true;
    return result;
  }

  ++stats_.misses;
  // Victim: an invalid way if any, else true LRU.
  const std::uint32_t set = geometry_.set_index(block);
  TagLine* base = &lines_[static_cast<std::size_t>(set) * geometry_.associativity];
  TagLine* victim = &base[0];
  for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru_stamp < victim->lru_stamp) victim = &base[w];
  }
  if (victim->valid) {
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.writebacks;
      result.writeback = victim->block_addr;
    }
  }
  victim->valid = true;
  victim->dirty = is_write;
  victim->block_addr = block;
  victim->lru_stamp = lru_clock_;
  return result;
}

bool SetAssocCache::probe(std::uint64_t addr) const noexcept {
  return find(geometry_.block_address(addr)) != nullptr;
}

bool SetAssocCache::invalidate(std::uint64_t addr) noexcept {
  if (TagLine* line = find(geometry_.block_address(addr))) {
    const bool was_dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    return was_dirty;
  }
  return false;
}

}  // namespace icr::mem
