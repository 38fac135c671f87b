// Load/Store Queue (paper Table 1: 8 entries).
//
// Memory instructions occupy an LSQ slot from dispatch to commit. The queue
// provides store-to-load forwarding: a load that issues while an older,
// not-yet-committed store to the same 64-bit word is queued receives the
// store's value directly (1-cycle latency, no cache access), which is how
// SimpleScalar's sim-outorder treats the common in-window dependence.
#pragma once

#include <cstdint>
#include <optional>

#include "src/cpu/ring.h"

namespace icr::cpu {

struct LsqEntry {
  std::uint64_t seq = 0;
  bool is_store = false;
  std::uint64_t addr = 0;   // 8-byte aligned word address
  std::uint64_t value = 0;  // store data
};

class Lsq {
 public:
  explicit Lsq(std::uint32_t capacity) : ring_(capacity) {}

  [[nodiscard]] bool full() const noexcept { return ring_.full(); }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }
  [[nodiscard]] std::uint32_t size() const noexcept { return ring_.size(); }

  void push(std::uint64_t seq, bool is_store, std::uint64_t addr,
            std::uint64_t value);

  // Frees the oldest entry if it belongs to `seq` (called at commit; memory
  // instructions commit in order, so head matching suffices).
  void pop_if_seq(std::uint64_t seq) noexcept;

  // The value of the youngest store older than `load_seq` to the same word,
  // if any (store-to-load forwarding).
  [[nodiscard]] std::optional<std::uint64_t> forward_value(
      std::uint64_t load_seq, std::uint64_t addr) const;

 private:
  Ring<LsqEntry> ring_;
};

}  // namespace icr::cpu
