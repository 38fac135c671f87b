#include "src/mem/memory_hierarchy.h"

namespace icr::mem {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config)
    : config_(config), l1i_(config.l1i), l2_(config.l2) {}

std::uint32_t MemoryHierarchy::ifetch(std::uint64_t pc, std::uint64_t cycle) {
  const auto l1 = l1i_.access(pc, /*is_write=*/false, cycle);
  std::uint32_t latency = config_.l1i_latency;
  if (!l1.hit) {
    ++l2_ifetch_reads_;
    latency += fetch_block(l2_.geometry().block_address(pc), cycle);
  }
  return latency;
}

std::uint32_t MemoryHierarchy::fetch_block(std::uint64_t block_addr,
                                           std::uint64_t cycle) {
  ++l2_read_accesses_;
  const auto l2 = l2_.access(block_addr, /*is_write=*/false, cycle);
  std::uint32_t latency = config_.l2_latency;
  if (!l2.hit) {
    ++memory_accesses_;
    latency += config_.memory_latency;
  }
  if (l2.writeback) {
    ++memory_accesses_;  // dirty L2 victim drains to memory (off-path)
  }
  return latency;
}

std::uint32_t MemoryHierarchy::write_back_block(std::uint64_t block_addr,
                                                std::uint64_t cycle) {
  ++l2_write_accesses_;
  const auto l2 = l2_.access(block_addr, /*is_write=*/true, cycle);
  if (l2.writeback) {
    ++memory_accesses_;
  }
  return config_.l2_latency;
}

}  // namespace icr::mem
