#include "src/cpu/lsq.h"

namespace icr::cpu {

void Lsq::push(std::uint64_t seq, bool is_store, std::uint64_t addr,
               std::uint64_t value) {
  ring_.push(LsqEntry{seq, is_store, addr & ~std::uint64_t{7}, value});
}

void Lsq::pop_if_seq(std::uint64_t seq) noexcept {
  if (!ring_.empty() && ring_.front().seq == seq) ring_.pop();
}

std::optional<std::uint64_t> Lsq::forward_value(std::uint64_t load_seq,
                                                std::uint64_t addr) const {
  const std::uint64_t word = addr & ~std::uint64_t{7};
  std::optional<std::uint64_t> result;
  for (std::uint32_t i = 0; i < ring_.size(); ++i) {
    const LsqEntry& e = ring_[i];
    if (e.seq >= load_seq) break;  // entries are in fetch order
    if (e.is_store && e.addr == word) result = e.value;  // youngest wins
  }
  return result;
}

}  // namespace icr::cpu
