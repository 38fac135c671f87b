// The instruction window (src/cpu/window.h): its RUU range, its LSQ count
// and store forwarding, and the age-ordered walk of a slot set.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/cpu/window.h"
#include "src/util/rng.h"

namespace icr::cpu {
namespace {

using trace::Instruction;
using trace::OpClass;

Instruction op(OpClass cls, std::uint64_t addr = 0, std::uint64_t value = 0) {
  Instruction instr;
  instr.op = cls;
  instr.mem_addr = addr;
  instr.store_value = value;
  return instr;
}
Instruction alu() { return op(OpClass::kIntAlu); }
Instruction load(std::uint64_t addr) { return op(OpClass::kLoad, addr); }
Instruction store(std::uint64_t addr, std::uint64_t value) {
  return op(OpClass::kStore, addr, value);
}

// Fetches `instr` into the tail slot; returns its seq.
std::uint64_t fetch(Window& w, const Instruction& instr) {
  RuuEntry& e = w.fetch_slot();
  e.instr = instr;
  w.push();
  return e.seq;
}

// Fetches and dispatches `instr`; returns its seq.
std::uint64_t fetch_dispatch(Window& w, const Instruction& instr) {
  const std::uint64_t seq = fetch(w, instr);
  w.dispatch();
  return seq;
}

TEST(Ruu, PushPopOrder) {
  Window w(4, 4, 1);  // 8 slots
  EXPECT_TRUE(w.ruu_empty());
  for (std::uint64_t s = 1; s <= 4; ++s) EXPECT_EQ(fetch_dispatch(w, alu()), s);
  EXPECT_TRUE(w.ruu_full());
  EXPECT_EQ(w.slot(w.head()).seq, 1u);
  w.commit();
  EXPECT_EQ(w.slot(w.head()).seq, 2u);
  EXPECT_EQ(fetch_dispatch(w, alu()), 5u);
  // Dispatch and commit in order, many times round the slots.
  for (std::uint64_t s = 6; s < 40; ++s) {
    w.commit();
    EXPECT_EQ(fetch_dispatch(w, alu()), s);
    for (std::uint64_t seq = w.head(); seq < w.dispatched(); ++seq) {
      ASSERT_EQ(w.slot(seq).seq, seq);
    }
    EXPECT_EQ(w.dispatched() - w.head(), 4u);
  }
}

TEST(Ruu, FindSeq) {
  Window w(16, 8, 16);
  EXPECT_EQ(w.find(1), nullptr);  // empty window
  for (std::uint64_t s = 1; s < 14; ++s) fetch_dispatch(w, alu());
  for (std::uint64_t s = 1; s < 10; ++s) w.commit();  // RUU holds 10..13
  ASSERT_NE(w.find(12), nullptr);
  EXPECT_EQ(w.find(12)->seq, 12u);
  EXPECT_EQ(w.find(99), nullptr);
  EXPECT_EQ(w.find(0), nullptr);  // "no producer"
  w.commit();
  EXPECT_EQ(w.find(10), nullptr);  // committed
}

TEST(Ruu, FindSeqBeyondTailIsNull) {
  Window w(8, 8, 8);
  for (std::uint64_t s = 1; s <= 3; ++s) fetch_dispatch(w, alu());
  fetch(w, alu());  // seq 4 stays in the fetch queue
  EXPECT_EQ(w.find(3)->seq, 3u);
  EXPECT_EQ(w.find(4), nullptr);  // fetched, not yet dispatched
  EXPECT_EQ(w.find(5), nullptr);  // not fetched
  EXPECT_EQ(w.find(3 + w.slots()), nullptr);  // would alias seq 3's slot
}

// Randomized fetch/dispatch/commit across many wraps: the O(1) lookup must
// agree with a linear scan of the RUU for seqs around and inside it.
TEST(Ruu, FindSeqMatchesLinearScanAcrossWraps) {
  struct Sizes {
    std::uint32_t ruu, fq;
  };
  for (const Sizes sizes : {Sizes{1, 1}, Sizes{3, 2}, Sizes{16, 16}}) {
    Window w(sizes.ruu, 8, sizes.fq);
    Rng rng(sizes.ruu);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t action = rng.next_below(3);
      if (action == 0 && !w.fq_full()) {
        fetch(w, alu());
      } else if (action == 1 && !w.fq_empty() && !w.ruu_full()) {
        w.dispatch();
      } else if (action == 2 && !w.ruu_empty()) {
        w.commit();
      }
      const std::uint64_t lo =
          w.head() > w.slots() + 3 ? w.head() - w.slots() - 3 : 0;
      for (std::uint64_t seq = lo; seq <= w.tail() + w.slots(); ++seq) {
        const RuuEntry* want = nullptr;
        for (std::uint64_t s = w.head(); s < w.dispatched(); ++s) {
          if (w.slot(s).seq == seq) want = &w.slot(s);
        }
        ASSERT_EQ(w.find(seq), want)
            << "ruu " << sizes.ruu << " step " << step << " seq " << seq;
      }
    }
    EXPECT_GT(w.head(), 4u * w.slots());  // wrapped many times
  }
}

// Seqs are the tail counter, so they are contiguous by construction, across
// commits; writing a slot that is still occupied aborts.
TEST(Ruu, PushRequiresContiguousSeq) {
  Window w(4, 4, 4);  // 8 slots: a full RUU and fetch queue fill them all
  EXPECT_EQ(fetch_dispatch(w, alu()), 1u);
  w.commit();
  EXPECT_EQ(fetch_dispatch(w, alu()), 2u);  // contiguity spans commits
  for (std::uint64_t s = 3; s <= 5; ++s) EXPECT_EQ(fetch_dispatch(w, alu()), s);
  for (std::uint64_t s = 6; s <= 9; ++s) EXPECT_EQ(fetch(w, alu()), s);
  EXPECT_TRUE(w.ruu_full());
  EXPECT_TRUE(w.fq_full());
  EXPECT_DEATH((void)w.fetch_slot(), "ICR_CHECK failed");
}

TEST(Ruu, PushResetsEntryState) {
  Window w(1, 1, 1);  // 2 slots
  fetch(w, alu());
  RuuEntry& e = w.dispatch();
  e.completed = true;
  e.pending = 2;
  e.complete_cycle = 77;
  e.first_consumer = 5;
  e.next_consumer[0] = 6;
  e.next_consumer[1] = 7;
  w.commit();
  fetch_dispatch(w, alu());
  w.commit();
  fetch(w, alu());
  EXPECT_TRUE(w.slot(3).completed);  // still the previous occupant's
  RuuEntry& e3 = w.dispatch();       // reuses e's slot
  EXPECT_EQ(&e3, &e);
  EXPECT_EQ(e3.seq, 3u);
  EXPECT_FALSE(e3.completed);
  EXPECT_EQ(e3.pending, 0u);
  EXPECT_EQ(e3.complete_cycle, 0u);
  EXPECT_EQ(e3.first_consumer, 0u);
  EXPECT_EQ(e3.next_consumer[0], 0u);
  EXPECT_EQ(e3.next_consumer[1], 0u);
}

TEST(Lsq, ForwardsYoungestOlderStore) {
  Window w(16, 8, 16);
  fetch_dispatch(w, store(0x100, 111));
  fetch_dispatch(w, store(0x100, 222));
  fetch_dispatch(w, store(0x200, 333));
  const std::uint64_t ld = fetch_dispatch(w, load(0x100));
  // The load sees stores 1 and 2 and takes the youngest (222).
  const RuuEntry* from = w.forward(ld, 0x100);
  ASSERT_NE(from, nullptr);
  EXPECT_EQ(from->instr.store_value, 222u);
}

TEST(Lsq, DoesNotForwardFromYoungerStore) {
  Window w(16, 8, 16);
  const std::uint64_t ld = fetch_dispatch(w, load(0x100));
  fetch_dispatch(w, store(0x100, 555));
  EXPECT_EQ(w.forward(ld, 0x100), nullptr);
  const std::uint64_t later = fetch_dispatch(w, load(0x100));
  EXPECT_NE(w.forward(later, 0x100), nullptr);
}

TEST(Lsq, DoesNotForwardAcrossWords) {
  Window w(16, 8, 16);
  fetch_dispatch(w, store(0x100, 1));
  const std::uint64_t ld = fetch_dispatch(w, load(0x108));
  EXPECT_EQ(w.forward(ld, 0x108), nullptr);
  // Same word, different byte offset: still forwards (word granularity).
  EXPECT_NE(w.forward(ld, 0x104), nullptr);
}

TEST(Lsq, LoadsDoNotForward) {
  Window w(16, 8, 16);
  fetch_dispatch(w, load(0x100));
  const std::uint64_t ld = fetch_dispatch(w, load(0x100));
  EXPECT_EQ(w.forward(ld, 0x100), nullptr);
}

// Commit frees the LSQ entry of the head only, and only a memory op's.
TEST(Lsq, PopIfSeqOnlyMatchesHead) {
  Window w(16, 2, 16);
  fetch_dispatch(w, alu());
  fetch_dispatch(w, store(0x100, 1));
  const std::uint64_t ld = fetch_dispatch(w, load(0x100));
  EXPECT_TRUE(w.lsq_full());
  w.commit();  // the ALU op
  EXPECT_TRUE(w.lsq_full());
  EXPECT_NE(w.forward(ld, 0x100), nullptr);
  w.commit();  // the store: no longer forwards
  EXPECT_FALSE(w.lsq_full());
  EXPECT_EQ(w.forward(ld, 0x100), nullptr);
  fetch_dispatch(w, load(0x100));  // takes the freed entry
  EXPECT_TRUE(w.lsq_full());
}

TEST(Lsq, ForwardsAfterWrapAround) {
  Window w(6, 6, 2);  // 8 slots
  ASSERT_EQ(w.slots(), 8u);
  for (int i = 0; i < 5; ++i) fetch_dispatch(w, alu());
  for (int i = 0; i < 5; ++i) w.commit();
  // Seqs 6 and 7 sit in the last slots, 8..11 wrap to the first ones.
  fetch_dispatch(w, store(0x100, 60));
  const std::uint64_t ld7 = fetch_dispatch(w, load(0x100));
  fetch_dispatch(w, store(0x100, 80));
  fetch_dispatch(w, store(0x200, 90));
  const std::uint64_t ld10 = fetch_dispatch(w, load(0x100));
  const std::uint64_t ld11 = fetch_dispatch(w, load(0x200));
  EXPECT_EQ(w.forward(ld7, 0x100)->instr.store_value, 60u);  // before wrap
  EXPECT_EQ(w.forward(ld10, 0x100)->instr.store_value, 80u);  // youngest
  EXPECT_EQ(w.forward(ld11, 0x200)->instr.store_value, 90u);
  EXPECT_EQ(w.forward(ld11, 0x100)->instr.store_value, 80u);
  EXPECT_EQ(w.forward(ld7, 0x200), nullptr);
}

// Dispatch is in order, so a memory op at the fetch-queue head waits for a
// free LSQ entry; the window aborts rather than over-fill it.
TEST(Lsq, FullBlocksPush) {
  Window w(8, 2, 8);
  fetch_dispatch(w, store(0, 0));
  fetch_dispatch(w, store(64, 0));
  EXPECT_TRUE(w.lsq_full());
  fetch_dispatch(w, alu());  // not a memory op: dispatches
  fetch(w, load(0));
  EXPECT_DEATH(w.dispatch(), "ICR_CHECK failed");
  w.commit();
  EXPECT_FALSE(w.lsq_full());
  w.dispatch();
  EXPECT_TRUE(w.lsq_full());
}

TEST(Window, SlotCountIsAPowerOfTwoOfAtMost64) {
  EXPECT_EQ(Window(16, 8, 16).slots(), 32u);  // paper Table 1
  EXPECT_EQ(Window(16, 8, 17).slots(), 64u);
  EXPECT_EQ(Window(1, 1, 1).slots(), 2u);
  EXPECT_EQ(Window(3, 1, 2).slots(), 8u);
  EXPECT_DEATH(Window(60, 8, 8), "ICR_CHECK failed");
  EXPECT_DEATH(Window(16, 0, 16), "ICR_CHECK failed");
}

TEST(Window, HeldFetchWaitsInTheTailSlot) {
  Window w(4, 4, 4);
  RuuEntry& held = w.fetch_slot();
  held.instr = load(0x40);
  EXPECT_TRUE(w.fq_empty());  // not pushed yet
  RuuEntry& again = w.fetch_slot();
  EXPECT_EQ(&again, &held);
  EXPECT_EQ(again.seq, 1u);
  EXPECT_EQ(again.instr.mem_addr, 0x40u);
  w.push();
  EXPECT_EQ(w.tail(), 2u);
}

// Randomized across head wraps and every slot count up to 64: walking a
// by_age() set from bit 0 visits its seqs in the order of a sorted list (built
// by ascending seq), and
// forward() agrees with a scan of the older stores, youngest first.
TEST(Window, AgeWalkAndForwardingMatchSortedScans) {
  struct Sizes {
    std::uint32_t ruu, fq;
  };
  for (const Sizes sizes : {Sizes{1, 1}, Sizes{3, 2}, Sizes{5, 3},
                            Sizes{16, 16}, Sizes{32, 32}, Sizes{40, 9}}) {
    Window w(sizes.ruu, sizes.ruu, sizes.fq);
    Rng rng(sizes.ruu * 100 + sizes.fq);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t action = rng.next_below(3);
      if (action == 0 && !w.fq_full()) {
        // Few words, so forwarding both hits and misses.
        const std::uint64_t addr = rng.next_below(4) * 8 + rng.next_below(8);
        const std::uint64_t kind = rng.next_below(3);
        fetch(w, kind == 0   ? alu()
                 : kind == 1 ? load(addr)
                             : store(addr, rng.next_u64()));
      } else if (action == 1 && !w.fq_empty() && !w.ruu_full()) {
        w.dispatch();
      } else if (action == 2 && !w.ruu_empty()) {
        w.commit();
      }

      std::vector<std::uint64_t> want;
      std::uint64_t set = 0;
      for (std::uint64_t s = w.head(); s < w.dispatched(); ++s) {
        if (rng.next_below(2) == 0) continue;
        want.push_back(s);
        set |= w.bit(s);
      }
      std::vector<std::uint64_t> got;
      for (std::uint64_t age = w.by_age(set); age != 0; age &= age - 1) {
        got.push_back(w.head() + std::countr_zero(age));
      }
      ASSERT_EQ(got, want) << "ruu " << sizes.ruu << " step " << step;

      for (std::uint64_t ld = w.head(); ld < w.dispatched(); ++ld) {
        if (!w.slot(ld).instr.is_load()) continue;
        const std::uint64_t word =
            w.slot(ld).instr.mem_addr & ~std::uint64_t{7};
        const RuuEntry* scan = nullptr;
        for (std::uint64_t s = ld; s-- > w.head();) {
          const Instruction& older = w.slot(s).instr;
          if (older.is_store() &&
              (older.mem_addr & ~std::uint64_t{7}) == word) {
            scan = &w.slot(s);
            break;
          }
        }
        ASSERT_EQ(w.forward(ld, w.slot(ld).instr.mem_addr), scan)
            << "ruu " << sizes.ruu << " step " << step << " load " << ld;
      }
    }
    EXPECT_GT(w.head(), 4u * w.slots());  // wrapped many times
  }
}

}  // namespace
}  // namespace icr::cpu
