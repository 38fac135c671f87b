// Register Update Unit: SimpleScalar's combined reorder buffer + reservation
// stations (paper Table 1: 16 entries). A circular buffer ordered by fetch
// sequence; instructions dispatch into the tail, issue out of order from the
// window, and commit in order from the head.
//
// Sequence numbers in the window are contiguous from the head (push()
// enforces it), so find_seq() is arithmetic rather than a search.
#pragma once

#include <cstdint>

#include "src/cpu/ring.h"
#include "src/trace/instruction.h"
#include "src/util/check.h"

namespace icr::cpu {

struct RuuEntry {
  trace::Instruction instr;
  std::uint64_t seq = 0;  // global fetch sequence number (1-based)
  bool issued = false;
  bool completed = false;
  bool mispredicted = false;  // branch known (at fetch) to mispredict
  std::uint8_t pending = 0;   // src1/src2 producers not yet completed
  std::uint64_t complete_cycle = 0;
  // Wakeup list of the consumers waiting on this entry's result. A link is
  // (consumer seq << 1 | operand index), 0 ends the list: first_consumer
  // heads this entry's list, next_consumer[k] continues the list that
  // operand k of this entry is queued on.
  std::uint64_t first_consumer = 0;
  std::uint64_t next_consumer[2] = {0, 0};
};

// front() is the oldest entry, [i] the i-th oldest.
class Ruu : public Ring<RuuEntry> {
 public:
  using Ring::Ring;

  // Appends a fresh entry for `seq` at the tail; requires !full() and,
  // unless the window is empty, seq == tail seq + 1.
  RuuEntry& push(std::uint64_t seq) {
    ICR_CHECK(empty() || seq == (*this)[size() - 1].seq + 1);
    RuuEntry entry;
    entry.seq = seq;
    return Ring::push(entry);
  }

  // Entry with sequence number `seq`, or nullptr if it already committed or
  // is not dispatched yet.
  [[nodiscard]] RuuEntry* find_seq(std::uint64_t seq) noexcept {
    if (empty()) return nullptr;
    // Unsigned: a seq older than the head wraps to a huge offset.
    const std::uint64_t offset = seq - front().seq;
    return offset < size() ? &(*this)[static_cast<std::uint32_t>(offset)]
                           : nullptr;
  }
};

}  // namespace icr::cpu
