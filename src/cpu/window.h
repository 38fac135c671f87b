// Instruction window: the fetch queue, the Register Update Unit
// (SimpleScalar's combined reorder buffer + reservation stations, paper
// Table 1: 16 entries) and the Load/Store Queue (8 entries) as one array of
// slots indexed by fetch sequence number, slot(seq) = seq & mask.
//
// Fetch writes each instruction into its slot once; it stays there until it
// commits, and the stages move counters and bits instead of entries:
//   [head, dispatched)  the RUU: dispatched, not yet committed, in order
//   [dispatched, tail)  the fetch queue
// The LSQ is the RUU's memory instructions: a count, plus a bitmask of the
// slots that hold stores, for store-to-load forwarding. Sequence numbers
// start at 1, so seq 0 ("no producer") is never in the window.
//
// The slot count is the smallest power of two holding a full RUU and a full
// fetch queue, so slot(tail) is free whenever fetch writes it, and at most
// 64, so a set of slots is one uint64_t (bit s = slot s).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "src/trace/instruction.h"
#include "src/util/check.h"

namespace icr::cpu {

struct RuuEntry {
  trace::Instruction instr;
  std::uint64_t seq = 0;      // global fetch sequence number (1-based)
  bool mispredicted = false;  // branch known (at fetch) to mispredict
  // Scheduling state, reset at dispatch.
  bool completed = false;
  std::uint8_t pending = 0;  // src1/src2 producers not yet completed
  std::uint64_t complete_cycle = 0;
  // Wakeup list of the consumers waiting on this entry's result. A link is
  // (consumer seq << 1 | operand index), 0 ends the list: first_consumer
  // heads this entry's list, next_consumer[k] continues the list that
  // operand k of this entry is queued on.
  std::uint64_t first_consumer = 0;
  std::uint64_t next_consumer[2] = {0, 0};
};

class Window {
 public:
  Window(std::uint32_t ruu_size, std::uint32_t lsq_size,
         std::uint32_t fetch_queue_size)
      : entries_(slot_count(ruu_size, lsq_size, fetch_queue_size)),
        mask_(entries_.size() - 1),
        ruu_size_(ruu_size),
        lsq_size_(lsq_size),
        fetch_queue_size_(fetch_queue_size) {}

  [[nodiscard]] std::uint32_t slots() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::uint64_t head() const noexcept { return head_; }
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] std::uint64_t tail() const noexcept { return tail_; }

  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  [[nodiscard]] bool ruu_empty() const noexcept { return head_ == dispatched_; }
  [[nodiscard]] bool ruu_full() const noexcept {
    return dispatched_ - head_ == ruu_size_;
  }
  [[nodiscard]] bool fq_empty() const noexcept { return dispatched_ == tail_; }
  [[nodiscard]] bool fq_full() const noexcept {
    return tail_ - dispatched_ == fetch_queue_size_;
  }
  [[nodiscard]] bool lsq_full() const noexcept {
    return lsq_count_ == lsq_size_;
  }

  [[nodiscard]] RuuEntry& slot(std::uint64_t seq) noexcept {
    return entries_[seq & mask_];
  }
  [[nodiscard]] const RuuEntry& slot(std::uint64_t seq) const noexcept {
    return entries_[seq & mask_];
  }
  // The one-bit set of seq's slot.
  [[nodiscard]] std::uint64_t bit(std::uint64_t seq) const noexcept {
    return std::uint64_t{1} << (seq & mask_);
  }

  // The RUU entry of `seq`, or nullptr if it already committed, is not
  // dispatched yet, or is 0. Unsigned: a seq older than the head wraps to a
  // huge offset.
  [[nodiscard]] RuuEntry* find(std::uint64_t seq) noexcept {
    return seq - head_ < dispatched_ - head_ ? &slot(seq) : nullptr;
  }

  // The free slot at the tail, stamped with its seq. Fetch writes the
  // instruction here and push()es it; an instruction held by an L1I miss
  // simply waits here unpushed.
  [[nodiscard]] RuuEntry& fetch_slot() noexcept {
    ICR_CHECK(tail_ - head_ < slots());
    RuuEntry& e = slot(tail_);
    e.seq = tail_;
    return e;
  }
  // Appends fetch_slot() to the fetch queue; requires !fq_full().
  void push() noexcept {
    ICR_DCHECK(!fq_full());
    ++tail_;
  }

  // Moves the fetch queue's oldest entry into the RUU, and into the LSQ if
  // it is a memory op, clearing the scheduling state its slot's previous
  // occupant left. Requires !fq_empty() and !ruu_full().
  RuuEntry& dispatch() noexcept {
    ICR_DCHECK(!fq_empty() && !ruu_full());
    RuuEntry& e = slot(dispatched_);
    e.completed = false;
    e.pending = 0;
    e.complete_cycle = 0;
    e.first_consumer = 0;
    e.next_consumer[0] = e.next_consumer[1] = 0;
    if (e.instr.is_mem()) {
      ICR_CHECK(!lsq_full());
      ++lsq_count_;
      if (e.instr.is_store()) stores_ |= bit(dispatched_);
    }
    ++dispatched_;
    return e;
  }

  // Retires the RUU head and frees its LSQ entry; requires !ruu_empty().
  void commit() noexcept {
    ICR_DCHECK(!ruu_empty());
    if (slot(head_).instr.is_mem()) {
      --lsq_count_;
      stores_ &= ~bit(head_);
    }
    ++head_;
  }

  // `set` (bit s = slot s) rotated so that bit k is seq head() + k: walking
  // the result from bit 0 up visits the slots oldest first.
  [[nodiscard]] std::uint64_t by_age(std::uint64_t set) const noexcept {
    const std::uint32_t s = head_ & mask_;
    // Two shifts: slots() - s may be 64.
    return ((set >> s) | (set << 1 << (mask_ - s))) & all_slots();
  }

  // The youngest store older than the dispatched load `load_seq` to the
  // same 8-byte word as `addr`, or nullptr (store-to-load forwarding).
  [[nodiscard]] const RuuEntry* forward(std::uint64_t load_seq,
                                        std::uint64_t addr) const noexcept {
    ICR_DCHECK(load_seq - head_ < dispatched_ - head_);
    const std::uint64_t word = addr & ~std::uint64_t{7};
    std::uint64_t older =
        by_age(stores_) & ((std::uint64_t{1} << (load_seq - head_)) - 1);
    while (older != 0) {
      const int age = std::bit_width(older) - 1;  // youngest first
      const RuuEntry& store = slot(head_ + age);
      if ((store.instr.mem_addr & ~std::uint64_t{7}) == word) return &store;
      older ^= std::uint64_t{1} << age;
    }
    return nullptr;
  }

 private:
  static std::uint32_t slot_count(std::uint32_t ruu_size,
                                  std::uint32_t lsq_size,
                                  std::uint32_t fetch_queue_size) {
    ICR_CHECK(ruu_size > 0 && lsq_size > 0 && fetch_queue_size > 0);
    // At most 64 slots, so every slot set fits one word.
    ICR_CHECK(ruu_size <= 64 && fetch_queue_size <= 64 - ruu_size);
    return std::bit_ceil(ruu_size + fetch_queue_size);
  }

  [[nodiscard]] std::uint64_t all_slots() const noexcept {
    return ~std::uint64_t{0} >> (63 - mask_);
  }

  std::vector<RuuEntry> entries_;
  std::uint32_t mask_;
  std::uint32_t ruu_size_;
  std::uint32_t lsq_size_;
  std::uint32_t fetch_queue_size_;
  std::uint64_t head_ = 1;
  std::uint64_t dispatched_ = 1;
  std::uint64_t tail_ = 1;
  std::uint32_t lsq_count_ = 0;
  std::uint64_t stores_ = 0;  // slots of the LSQ's stores
};

}  // namespace icr::cpu
