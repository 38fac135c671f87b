#include <gtest/gtest.h>

#include <cstdint>

#include "src/cpu/lsq.h"
#include "src/cpu/ruu.h"
#include "src/util/rng.h"

namespace icr::cpu {
namespace {

TEST(Ruu, PushPopOrder) {
  Ruu ruu(4);
  EXPECT_TRUE(ruu.empty());
  for (std::uint64_t s = 1; s <= 4; ++s) ruu.push(s);
  EXPECT_TRUE(ruu.full());
  EXPECT_EQ(ruu.front().seq, 1u);
  ruu.pop();
  EXPECT_EQ(ruu.front().seq, 2u);
  ruu.push(5);  // wraps the ring
  EXPECT_EQ(ruu[0].seq, 2u);
  EXPECT_EQ(ruu[3].seq, 5u);
}

TEST(Ruu, FindSeq) {
  Ruu ruu(8);
  EXPECT_EQ(ruu.find_seq(10), nullptr);  // empty window
  for (std::uint64_t s = 10; s < 14; ++s) ruu.push(s);
  EXPECT_NE(ruu.find_seq(12), nullptr);
  EXPECT_EQ(ruu.find_seq(12)->seq, 12u);
  EXPECT_EQ(ruu.find_seq(99), nullptr);
  EXPECT_EQ(ruu.find_seq(0), nullptr);  // "no producer"
  ruu.pop();
  EXPECT_EQ(ruu.find_seq(10), nullptr);  // committed
}

TEST(Ruu, FindSeqBeyondTailIsNull) {
  Ruu ruu(8);
  for (std::uint64_t s = 1; s <= 3; ++s) ruu.push(s);
  EXPECT_EQ(ruu.find_seq(3)->seq, 3u);
  EXPECT_EQ(ruu.find_seq(4), nullptr);  // fetched, not yet dispatched
  EXPECT_EQ(ruu.find_seq(9), nullptr);  // would alias a free slot
}

// Randomized push/pop across many ring wraps: the O(1) lookup must agree
// with a linear scan of the window for seqs around and inside it.
TEST(Ruu, FindSeqMatchesLinearScanAcrossWraps) {
  for (const std::uint32_t capacity : {1u, 3u, 16u}) {
    Ruu ruu(capacity);
    Rng rng(capacity);
    std::uint64_t next = 1;
    for (int step = 0; step < 20000; ++step) {
      if (!ruu.full() && (ruu.empty() || rng.bernoulli(0.5))) {
        ruu.push(next++);
      } else {
        ruu.pop();
      }
      const std::uint64_t lo = next > capacity + 3 ? next - capacity - 3 : 0;
      for (std::uint64_t seq = lo; seq <= next + 2; ++seq) {
        const RuuEntry* want = nullptr;
        for (std::uint32_t i = 0; i < ruu.size(); ++i) {
          if (ruu[i].seq == seq) want = &ruu[i];
        }
        ASSERT_EQ(ruu.find_seq(seq), want)
            << "capacity " << capacity << " step " << step << " seq " << seq;
      }
    }
    EXPECT_GT(next, 4u * capacity);  // wrapped many times
  }
}

TEST(Ruu, PushRequiresContiguousSeq) {
  Ruu ruu(4);
  ruu.push(7);
  EXPECT_DEATH(ruu.push(9), "ICR_CHECK failed");
  ruu.pop();
  ruu.push(8);  // contiguity spans pops
  EXPECT_EQ(ruu.front().seq, 8u);
}

TEST(Ruu, PushResetsEntryState) {
  Ruu ruu(2);
  RuuEntry& e = ruu.push(1);
  e.issued = true;
  e.completed = true;
  e.pending = 2;
  e.first_consumer = 5;
  ruu.pop();
  ruu.push(2);
  RuuEntry& e3 = ruu.push(3);  // reuses e's slot
  EXPECT_EQ(&e3, &e);
  EXPECT_FALSE(e3.issued);
  EXPECT_FALSE(e3.completed);
  EXPECT_EQ(e3.pending, 0u);
  EXPECT_EQ(e3.first_consumer, 0u);
  EXPECT_EQ(e3.seq, 3u);
}

TEST(Lsq, ForwardsYoungestOlderStore) {
  Lsq lsq(8);
  lsq.push(1, true, 0x100, 111);
  lsq.push(2, true, 0x100, 222);
  lsq.push(3, true, 0x200, 333);
  // Load seq 4 at 0x100: sees stores 1 and 2, takes the youngest (222).
  const auto v = lsq.forward_value(4, 0x100);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 222u);
}

TEST(Lsq, DoesNotForwardFromYoungerStore) {
  Lsq lsq(8);
  lsq.push(5, true, 0x100, 555);
  EXPECT_FALSE(lsq.forward_value(3, 0x100).has_value());
}

TEST(Lsq, DoesNotForwardAcrossWords) {
  Lsq lsq(8);
  lsq.push(1, true, 0x100, 1);
  EXPECT_FALSE(lsq.forward_value(2, 0x108).has_value());
  // Same word, different byte offset: still forwards (word granularity).
  EXPECT_TRUE(lsq.forward_value(2, 0x104).has_value());
}

TEST(Lsq, LoadsDoNotForward) {
  Lsq lsq(8);
  lsq.push(1, false, 0x100, 0);  // a load entry
  EXPECT_FALSE(lsq.forward_value(2, 0x100).has_value());
}

TEST(Lsq, PopIfSeqOnlyMatchesHead) {
  Lsq lsq(4);
  lsq.push(1, true, 0x100, 1);
  lsq.push(2, false, 0x200, 0);
  lsq.pop_if_seq(2);  // head is seq 1: no-op
  EXPECT_EQ(lsq.size(), 2u);
  lsq.pop_if_seq(1);
  EXPECT_EQ(lsq.size(), 1u);
  lsq.pop_if_seq(2);
  EXPECT_TRUE(lsq.empty());
}

TEST(Lsq, ForwardsAfterWrapAround) {
  Lsq lsq(4);
  for (std::uint64_t s = 1; s <= 4; ++s) lsq.push(s, true, 0x100, s * 10);
  for (std::uint64_t s = 1; s <= 3; ++s) lsq.pop_if_seq(s);
  // Slots now hold seq 4 at the ring's end and 5..7 wrapped to its start.
  lsq.push(5, false, 0x100, 0);
  lsq.push(6, true, 0x100, 60);
  lsq.push(7, true, 0x200, 70);
  EXPECT_EQ(lsq.forward_value(5, 0x100), 40u);  // seq 4, before the wrap
  EXPECT_EQ(lsq.forward_value(8, 0x100), 60u);  // youngest, after the wrap
  EXPECT_EQ(lsq.forward_value(8, 0x200), 70u);
  EXPECT_FALSE(lsq.forward_value(4, 0x100).has_value());
}

TEST(Lsq, FullBlocksPush) {
  Lsq lsq(2);
  lsq.push(1, true, 0, 0);
  lsq.push(2, true, 64, 0);
  EXPECT_TRUE(lsq.full());
}

}  // namespace
}  // namespace icr::cpu
