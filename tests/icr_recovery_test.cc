// Error detection & recovery: the reliability half of the paper, exercised
// end-to-end on real stored bits.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "src/baselines/rcache.h"
#include "src/core/icr_cache.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace icr::core {
namespace {

using test::CacheFixture;
using test::addr_for;

// Locates (set, way) of the primary copy of `addr`.
bool find_primary(const IcrCache& c, std::uint64_t addr, std::uint32_t& set,
                  std::uint32_t& way) {
  const auto& g = c.geometry();
  set = g.set_index(addr);
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = c.line(set, w);
    if (l.valid && !l.replica && l.block_addr == g.block_address(addr)) {
      way = w;
      return true;
    }
  }
  return false;
}

TEST(Recovery, ParityDetectsFlipAndRefetchesCleanBlock) {
  CacheFixture f(Scheme::BaseP());
  const std::uint64_t addr = 0x4000;
  f.dl1->load(addr, 0);  // clean block resident
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 3);

  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_FALSE(r.unrecoverable);
  EXPECT_EQ(r.value, mem::BackingStore::initial_word(addr));
  EXPECT_GT(r.latency, 2u);  // paid an L2 trip
  EXPECT_EQ(f.dl1->stats().errors_refetched_from_l2, 1u);
}

TEST(Recovery, ParityCannotRecoverDirtyUnreplicatedBlock) {
  CacheFixture f(Scheme::BaseP());
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);  // dirty, no replica under BaseP
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);

  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.unrecoverable);
  EXPECT_NE(r.value, 42u);  // the corrupted value
  EXPECT_EQ(f.dl1->stats().unrecoverable_loads, 1u);
}

TEST(Recovery, ReplicaRecoversDirtyBlock) {
  CacheFixture f(Scheme::IcrPPS_S());
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);  // dirty + replicated
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);

  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_EQ(r.value, 42u);  // repaired from the replica
  EXPECT_EQ(r.latency, 2u);  // 1-cycle hit + 1-cycle serial replica probe
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_replica, 1u);
  // The primary has been repaired: the next load is clean and 1 cycle.
  const auto r2 = f.dl1->load(addr, 2);
  EXPECT_FALSE(r2.error_detected);
  EXPECT_EQ(r2.latency, 1u);
}

TEST(Recovery, ParallelLookupPaysNoExtraProbeCycle) {
  CacheFixture f(Scheme::IcrPPP_S());
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_EQ(r.latency, 2u);  // already 2 cycles, replica came for free
}

TEST(Recovery, CorruptReplicaFallsBackToUnrecoverable) {
  CacheFixture f(Scheme::IcrPPS_S());
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, 1, 1);
  f.dl1->store(addr, 42, 0);
  // Corrupt the primary word AND the replica word.
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);
  const std::uint32_t rset = (1 + g.num_sets() / 2) % g.num_sets();
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = f.dl1->line(rset, w);
    if (l.valid && l.replica) f.dl1->flip_check_bit(rset, w, 0, 1, false);
  }
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.unrecoverable);  // dirty, parity-only, both copies bad
}

TEST(Recovery, EccCorrectsSingleBitOnDirtyBlock) {
  CacheFixture f(Scheme::BaseECC());
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 5, 7);
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_ecc, 1u);
}

TEST(Recovery, EccDoubleBitOnDirtyBlockIsUnrecoverable) {
  CacheFixture f(Scheme::BaseECC());
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);
  f.dl1->flip_data_bit(set, way, 1, 1);  // two bits in the accessed word
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.unrecoverable);
}

TEST(Recovery, EccDoubleBitOnDirtyBlockFallsBackToTheRcache) {
  CacheFixture f(Scheme::BaseECC());
  baselines::RCache rcache(64);
  f.dl1->attach_rcache(&rcache);
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);  // dirty, and duplicated into the R-Cache
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);
  f.dl1->flip_data_bit(set, way, 1, 1);  // two bits in the accessed word
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_FALSE(r.unrecoverable);
  EXPECT_EQ(r.recovery, IcrCache::AccessOutcome::Recovery::kRcache);
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(r.latency, 3u);  // 2-cycle ECC hit + 1-cycle R-Cache probe
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_rcache, 1u);
  EXPECT_EQ(f.dl1->stats().unrecoverable_loads, 0u);
  const auto r2 = f.dl1->load(addr, 2);  // the word was repaired
  EXPECT_FALSE(r2.error_detected);
  EXPECT_EQ(r2.value, 42u);
}

TEST(Recovery, EccDoubleBitOnCleanBlockRefetches) {
  CacheFixture f(Scheme::BaseECC());
  const std::uint64_t addr = 0x4000;
  f.dl1->load(addr, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 0);
  f.dl1->flip_data_bit(set, way, 0, 1);
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_EQ(r.value, mem::BackingStore::initial_word(addr));
}

TEST(Recovery, CorruptOrphanStaysDetectableAfterAReplicaFill) {
  // A leave-mode miss served by an orphan carries the orphan's parity, not
  // parity recomputed over its data, so a strike on the orphan is still
  // caught by the load that reads the word.
  CacheFixture f(Scheme::IcrPPS_S().with_leave_replicas(true));
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, 0, 0);
  f.dl1->store(addr, 77, 0);  // primary in set 0, replica at num_sets/2
  for (std::uint32_t t = 1; t <= g.associativity; ++t) {
    f.dl1->load(addr_for(g, 0, t), t);  // evicts (writes back) the primary
  }
  ASSERT_EQ(f.dl1->resident_replicas(), 1u);  // the orphan
  const std::uint32_t rset = g.num_sets() / 2;
  bool struck = false;
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = f.dl1->line(rset, w);
    if (l.valid && l.replica && l.block_addr == g.block_address(addr)) {
      f.dl1->flip_data_bit(rset, w, 0, 0);  // word 0 of the orphan
      struck = true;
    }
  }
  ASSERT_TRUE(struck);

  const auto fill = f.dl1->load(addr + 8, 100);  // word 1: clean
  EXPECT_TRUE(fill.replica_fill);
  EXPECT_FALSE(fill.error_detected);
  const auto r = f.dl1->load(addr, 101);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.error_detected);
  // The re-attached replica holds the same strike; the refilled block is
  // clean, so it is refetched with the written-back value.
  EXPECT_EQ(r.recovery, IcrCache::AccessOutcome::Recovery::kRefetch);
  EXPECT_EQ(r.value, 77u);
  f.dl1->check_invariants();
}

TEST(Recovery, IcrEccUsesParityOnReplicatedLines) {
  // ICR-ECC-PS: a replicated line is parity-protected and loads in 1 cycle;
  // an unreplicated line pays the 2-cycle ECC check.
  CacheFixture f(Scheme::IcrEccPS_S());
  const std::uint64_t hot = 0x4000;
  f.dl1->store(hot, 1, 0);  // replicated
  EXPECT_EQ(f.dl1->load(hot, 1).latency, 1u);

  const std::uint64_t cold = 0x8000;
  f.dl1->load(cold, 2);  // filled, never stored -> unreplicated
  EXPECT_EQ(f.dl1->load(cold, 3).latency, 2u);
}

TEST(Recovery, IcrEccRecoversDirtyViaReplicaWithoutEcc) {
  CacheFixture f(Scheme::IcrEccPS_S());
  const std::uint64_t addr = 0x4000;
  f.dl1->store(addr, 42, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  f.dl1->flip_data_bit(set, way, 0, 2);
  const auto r = f.dl1->load(addr, 1);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_replica, 1u);
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_ecc, 0u);
}

TEST(Recovery, ErrorInUnaccessedWordIsInvisible) {
  CacheFixture f(Scheme::BaseP());
  f.dl1->load(0x4000, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, 0x4000, set, way));
  f.dl1->flip_data_bit(set, way, /*byte=*/32, 0);  // word 4
  const auto r = f.dl1->load(0x4000, 1);  // word 0: clean
  EXPECT_FALSE(r.error_detected);
  const auto r2 = f.dl1->load(0x4020, 2);  // word 4: detected
  EXPECT_TRUE(r2.error_detected);
}

TEST(Recovery, CheckBitFlipDetectedByParityRegime) {
  CacheFixture f(Scheme::BaseP());
  f.dl1->load(0x4000, 0);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, 0x4000, set, way));
  f.dl1->flip_check_bit(set, way, 0, 0, /*ecc_array=*/false);
  const auto r = f.dl1->load(0x4000, 1);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.error_recovered);  // clean block: refetched
}

// Flips all eight SEC-DED check bits of every word of every line.
void flip_every_ecc_bit(IcrCache& c) {
  for (std::uint32_t set = 0; set < c.num_sets(); ++set) {
    for (std::uint32_t way = 0; way < c.ways(); ++way) {
      for (std::uint32_t w = 0; w < c.geometry().words_per_line(); ++w) {
        for (std::uint32_t bit = 0; bit < 8; ++bit) {
          c.flip_check_bit(set, way, w, bit, /*ecc_array=*/true);
        }
      }
    }
  }
}

TEST(Recovery, ParityOnlySchemesNeverReadTheEccBits) {
  // DESIGN.md, "Check bits": a parity-only scheme neither encodes nor
  // decodes SEC-DED, so corrupting every ECC bit changes nothing. The
  // data strikes, the same in both caches, run the recovery ladder.
  static_assert(std::has_unique_object_representations_v<IcrStats>);
  for (const Scheme& scheme :
       {Scheme::BaseP(), Scheme::IcrPPS_S(), Scheme::IcrPPP_LS(),
        Scheme::IcrPPS_LS().with_leave_replicas(true)}) {
    CacheFixture clean(scheme);
    CacheFixture struck(scheme);
    const auto& g = clean.dl1->geometry();
    Rng rng(2003);
    for (std::uint64_t cycle = 0; cycle < 6000; ++cycle) {
      if (cycle % 64 == 0) flip_every_ecc_bit(*struck.dl1);
      if (cycle % 16 == 0) {
        const auto set = static_cast<std::uint32_t>(rng.next_below(g.num_sets()));
        const auto way =
            static_cast<std::uint32_t>(rng.next_below(g.associativity));
        const auto byte =
            static_cast<std::uint32_t>(rng.next_below(g.line_bytes));
        const auto bit = static_cast<std::uint32_t>(rng.next_below(8));
        clean.dl1->flip_data_bit(set, way, byte, bit);
        struck.dl1->flip_data_bit(set, way, byte, bit);
      }
      const std::uint64_t addr = rng.next_below(4096) * 8;
      IcrCache::AccessOutcome a;
      IcrCache::AccessOutcome b;
      if (rng.bernoulli(0.3)) {
        const std::uint64_t value = rng.next_u64();
        a = clean.dl1->store(addr, value, cycle);
        b = struck.dl1->store(addr, value, cycle);
      } else {
        a = clean.dl1->load(addr, cycle);
        b = struck.dl1->load(addr, cycle);
      }
      ASSERT_EQ(a.latency, b.latency) << scheme.name << " cycle " << cycle;
      ASSERT_EQ(a.hit, b.hit);
      ASSERT_EQ(a.replica_fill, b.replica_fill);
      ASSERT_EQ(a.error_detected, b.error_detected);
      ASSERT_EQ(a.error_recovered, b.error_recovered);
      ASSERT_EQ(a.unrecoverable, b.unrecoverable);
      ASSERT_EQ(a.recovery, b.recovery);
      ASSERT_EQ(a.value, b.value);
    }
    EXPECT_GT(clean.dl1->stats().errors_detected, 0u) << scheme.name;
    EXPECT_EQ(std::memcmp(&clean.dl1->stats(), &struck.dl1->stats(),
                          sizeof(IcrStats)),
              0)
        << scheme.name;
  }
}

TEST(Recovery, IcrEccCorrectsASingleBitFlipOnceTheLastReplicaIsGone) {
  // A store to a replicated line runs under parity, yet its SEC-DED bits
  // must be current: when the replica goes, the line is back under ECC.
  CacheFixture f(Scheme::IcrEccPS_S());
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, 1, 0);
  f.dl1->store(addr, 41, 0);  // dirty and replicated
  f.dl1->store(addr, 42, 1);  // written while replicated
  ASSERT_EQ(f.dl1->resident_replicas(), 1u);
  // Evict the replica: fill its set (distance num_sets/2) with primaries.
  const std::uint32_t replica_set = (1 + g.num_sets() / 2) % g.num_sets();
  for (std::uint32_t t = 1; t <= g.associativity; ++t) {
    f.dl1->load(addr_for(g, replica_set, t), 1 + t);
  }
  ASSERT_EQ(f.dl1->resident_replicas(), 0u);
  std::uint32_t set = 0, way = 0;
  ASSERT_TRUE(find_primary(*f.dl1, addr, set, way));
  ASSERT_EQ(f.dl1->line(set, way).replica_count, 0u);

  f.dl1->flip_data_bit(set, way, 3, 5);
  const auto r = f.dl1->load(addr, 100);
  EXPECT_EQ(r.latency, 2u);  // the ECC check again
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.error_recovered);
  EXPECT_FALSE(r.unrecoverable);
  EXPECT_EQ(r.recovery, IcrCache::AccessOutcome::Recovery::kEcc);
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_ecc, 1u);
  EXPECT_FALSE(f.dl1->load(addr, 101).error_detected);  // repaired
}

}  // namespace
}  // namespace icr::core
