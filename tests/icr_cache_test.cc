#include "src/core/icr_cache.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/util/rng.h"
#include "tests/test_util.h"

namespace icr::core {
namespace {

using test::CacheFixture;
using test::addr_for;

TEST(IcrCache, LoadMissThenHit) {
  CacheFixture f(Scheme::BaseP());
  auto r1 = f.dl1->load(0x1000, 0);
  EXPECT_FALSE(r1.hit);
  EXPECT_GT(r1.latency, 1u);  // miss pays L2/memory
  auto r2 = f.dl1->load(0x1000, 1);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.latency, 1u);  // BaseP hit
  EXPECT_EQ(f.dl1->stats().load_misses, 1u);
  EXPECT_EQ(f.dl1->stats().load_hits, 1u);
}

TEST(IcrCache, LoadDeliversBackingValue) {
  CacheFixture f(Scheme::BaseP());
  const std::uint64_t addr = 0x2008;
  const auto r = f.dl1->load(addr, 0);
  EXPECT_EQ(r.value, mem::BackingStore::initial_word(addr));
}

TEST(IcrCache, StoreThenLoadReturnsStoredValue) {
  CacheFixture f(Scheme::BaseP());
  f.dl1->store(0x3000, 0xABCD, 0);
  const auto r = f.dl1->load(0x3000, 1);
  EXPECT_EQ(r.value, 0xABCDu);
  // Other words of the block still have backing content.
  const auto r2 = f.dl1->load(0x3008, 2);
  EXPECT_EQ(r2.value, mem::BackingStore::initial_word(0x3008));
}

TEST(IcrCache, StoreLatencyIsOneCycle) {
  for (auto scheme : {Scheme::BaseP(), Scheme::BaseECC(), Scheme::IcrPPS_S(),
                      Scheme::IcrEccPP_LS()}) {
    CacheFixture f(scheme);
    EXPECT_EQ(f.dl1->store(0x100, 1, 0).latency, 1u) << scheme.name;
    EXPECT_EQ(f.dl1->store(0x100, 2, 1).latency, 1u) << scheme.name;
  }
}

TEST(IcrCache, BaseEccLoadHitLatency) {
  CacheFixture f(Scheme::BaseECC());
  f.dl1->load(0x100, 0);
  EXPECT_EQ(f.dl1->load(0x100, 1).latency, 2u);
  CacheFixture spec(Scheme::BaseECCSpeculative());
  spec.dl1->load(0x100, 0);
  EXPECT_EQ(spec.dl1->load(0x100, 1).latency, 1u);
}

TEST(IcrCache, StoreCreatesReplicaAtDistanceHalf) {
  CacheFixture f(Scheme::IcrPPS_S());
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, /*set=*/3, /*tag=*/1);
  f.dl1->store(addr, 7, 0);
  EXPECT_EQ(f.dl1->stats().replicas_created, 1u);
  EXPECT_EQ(f.dl1->resident_replicas(), 1u);
  // The replica lives in set 3 + N/2 and carries the block address.
  const std::uint32_t rset = (3 + g.num_sets() / 2) % g.num_sets();
  bool found = false;
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = f.dl1->line(rset, w);
    if (l.valid && l.replica && l.block_addr == g.block_address(addr)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  f.dl1->check_invariants();
}

TEST(IcrCache, HorizontalReplicationStaysInSet) {
  ReplicationConfig rep;
  rep.first_distance = Distance::zero();
  CacheFixture f(Scheme::IcrPPS_S().with_replication(rep));
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, 5, 1);
  f.dl1->load(addr, 0);            // primary resident in set 5
  f.dl1->store(addr, 1, 1);        // replica must land in set 5 too
  EXPECT_EQ(f.dl1->stats().replicas_created, 1u);
  bool found = false;
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = f.dl1->line(5, w);
    if (l.valid && l.replica) found = true;
  }
  EXPECT_TRUE(found);
  f.dl1->check_invariants();
}

TEST(IcrCache, LoadsWithReplicaCounted) {
  CacheFixture f(Scheme::IcrPPS_S());
  f.dl1->store(0x100, 1, 0);  // creates replica
  f.dl1->load(0x100, 1);
  f.dl1->load(0x100, 2);
  EXPECT_EQ(f.dl1->stats().loads_with_replica, 2u);
  EXPECT_DOUBLE_EQ(f.dl1->stats().loads_with_replica_fraction(), 1.0);
}

TEST(IcrCache, StoreUpdatesReplicaCoherently) {
  CacheFixture f(Scheme::IcrPPS_S());
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, 2, 1, /*word=*/3);
  f.dl1->store(addr, 111, 0);  // creates replica with value 111
  f.dl1->store(addr, 222, 1);  // must update the replica too
  EXPECT_GE(f.dl1->stats().replica_updates, 1u);
  // Find the replica and check its word content.
  const std::uint32_t rset = (2 + g.num_sets() / 2) % g.num_sets();
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = f.dl1->line(rset, w);
    if (l.valid && l.replica) {
      std::uint64_t word = 0;
      std::memcpy(&word, l.data.data() + 3 * 8, 8);
      EXPECT_EQ(word, 222u);
    }
  }
  f.dl1->check_invariants();
}

TEST(IcrCache, STriggerDoesNotReplicateOnLoadMiss) {
  CacheFixture f(Scheme::IcrPPS_S());
  f.dl1->load(0x5000, 0);
  EXPECT_EQ(f.dl1->stats().replicas_created, 0u);
  EXPECT_EQ(f.dl1->stats().replication_opportunities, 0u);
}

TEST(IcrCache, LSTriggerReplicatesOnLoadMiss) {
  CacheFixture f(Scheme::IcrPPS_LS());
  f.dl1->load(0x5000, 0);
  EXPECT_EQ(f.dl1->stats().replicas_created, 1u);
  EXPECT_EQ(f.dl1->stats().replication_opportunities, 1u);
}

TEST(IcrCache, OpportunityAccountingOnRepeatedStores) {
  CacheFixture f(Scheme::IcrPPS_S());
  f.dl1->store(0x100, 1, 0);  // creates the replica
  f.dl1->store(0x100, 2, 1);  // already replicated: opportunity, no success
  f.dl1->store(0x100, 3, 2);
  const auto& s = f.dl1->stats();
  EXPECT_EQ(s.replication_opportunities, 3u);
  EXPECT_EQ(s.replication_successes, 1u);
  EXPECT_EQ(s.opportunities_with_one, 1u);  // only the first created a copy
  EXPECT_DOUBLE_EQ(s.replication_ability(), 1.0 / 3.0);
}

TEST(IcrCache, PrimaryEvictionDropsReplicas) {
  CacheFixture f(Scheme::IcrPPS_S());
  const auto& g = f.dl1->geometry();
  const std::uint64_t victim_addr = addr_for(g, 0, 0);
  f.dl1->store(victim_addr, 1, 0);  // primary in set 0 + replica in set 32
  EXPECT_EQ(f.dl1->resident_replicas(), 1u);
  // Fill set 0 with other primaries until the victim block is evicted.
  for (std::uint32_t t = 1; t <= g.associativity; ++t) {
    f.dl1->load(addr_for(g, 0, t), t);
  }
  EXPECT_GE(f.dl1->stats().replica_evictions, 1u);
  EXPECT_EQ(f.dl1->resident_replicas(), 0u);
  f.dl1->check_invariants();
}

TEST(IcrCache, LeaveReplicasServesMissFromOrphan) {
  CacheFixture f(Scheme::IcrPPS_S().with_leave_replicas(true));
  const auto& g = f.dl1->geometry();
  const std::uint64_t addr = addr_for(g, 0, 0);
  f.dl1->store(addr, 77, 0);
  // Evict the primary.
  for (std::uint32_t t = 1; t <= g.associativity; ++t) {
    f.dl1->load(addr_for(g, 0, t), t);
  }
  EXPECT_EQ(f.dl1->resident_replicas(), 1u);  // orphan survives
  const auto r = f.dl1->load(addr, 100);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.replica_fill);
  EXPECT_EQ(r.value, 77u);
  EXPECT_LE(r.latency, 2u + 1u);  // hit latency + 1, far below L2 trip
  EXPECT_EQ(f.dl1->stats().replica_fills, 1u);
  f.dl1->check_invariants();
}

TEST(IcrCache, DeadOnlyNeverEvictsLivePrimary) {
  // With a huge decay window nothing is ever dead, so replica placement
  // into a set full of live primaries must fail.
  CacheFixture f(Scheme::IcrPPS_S().with_decay_window(1'000'000'000));
  const auto& g = f.dl1->geometry();
  const std::uint32_t rset = (0 + g.num_sets() / 2) % g.num_sets();
  // Fill the replica target set with live primaries.
  for (std::uint32_t t = 0; t < g.associativity; ++t) {
    f.dl1->load(addr_for(g, rset, t), t);
  }
  f.dl1->store(addr_for(g, 0, 9), 1, 10);
  EXPECT_EQ(f.dl1->stats().replicas_created, 0u);
  EXPECT_EQ(f.dl1->stats().site_search_failures, 1u);
  // All four primaries survived.
  for (std::uint32_t t = 0; t < g.associativity; ++t) {
    EXPECT_TRUE(f.dl1->load(addr_for(g, rset, t), 20 + t).hit);
  }
}

TEST(IcrCache, DeadFirstFallsBackToReplicas) {
  // Target set: all live primaries... except one way holding a replica.
  CacheFixture f(Scheme::IcrPPS_S()
                     .with_decay_window(1'000'000'000)
                     .with_victim_policy(ReplicaVictimPolicy::kDeadFirst));
  const auto& g = f.dl1->geometry();
  const std::uint32_t half = g.num_sets() / 2;
  // Block in set 0 -> replica in set `half`.
  f.dl1->store(addr_for(g, 0, 5), 1, 0);
  ASSERT_EQ(f.dl1->resident_replicas(), 1u);
  // Fill the rest of set `half` with live primaries.
  for (std::uint32_t t = 0; t < g.associativity - 1; ++t) {
    f.dl1->load(addr_for(g, half, t), 1 + t);
  }
  // A new block in set 0 wants a replica in set `half`: only the existing
  // replica is a candidate, and dead-first accepts it as fallback.
  f.dl1->store(addr_for(g, 0, 6), 2, 10);
  EXPECT_EQ(f.dl1->stats().replicas_created, 2u);
  EXPECT_EQ(f.dl1->resident_replicas(), 1u);  // old replica displaced
  f.dl1->check_invariants();
}

TEST(IcrCache, MultiReplicaPlacesTwoCopies) {
  ReplicationConfig rep;
  rep.num_replicas = 2;
  rep.fallback = FallbackStrategy::kMultiAttempt;
  rep.extra_attempts = {Distance::quarter()};
  CacheFixture f(Scheme::IcrPPS_S().with_replication(rep));
  const auto& g = f.dl1->geometry();
  f.dl1->store(addr_for(g, 0, 1), 1, 0);
  EXPECT_EQ(f.dl1->resident_replicas(), 2u);
  EXPECT_EQ(f.dl1->stats().opportunities_with_two, 1u);
  f.dl1->check_invariants();
}

TEST(IcrCache, WriteThroughStoresReachBacking) {
  CacheFixture f(Scheme::BaseP().with_write_through());
  f.dl1->store(0x100, 123, 0);
  EXPECT_EQ(f.hierarchy->backing().read_word(0x100), 123u);
  ASSERT_NE(f.dl1->write_buffer(), nullptr);
  EXPECT_EQ(f.dl1->write_buffer()->occupancy(), 1u);
}

TEST(IcrCache, WriteBackDefersBackingUpdate) {
  CacheFixture f(Scheme::BaseP());
  const std::uint64_t before = f.hierarchy->backing().read_word(0x100);
  f.dl1->store(0x100, 123, 0);
  EXPECT_EQ(f.hierarchy->backing().read_word(0x100), before);
}

TEST(IcrCache, RandomWorkloadMaintainsInvariants) {
  for (auto scheme : {Scheme::IcrPPS_S(), Scheme::IcrPPS_LS(),
                      Scheme::IcrEccPS_S().with_leave_replicas(true),
                      Scheme::IcrPPP_LS().with_victim_policy(
                          ReplicaVictimPolicy::kDeadFirst)}) {
    CacheFixture f(scheme);
    Rng rng(99);
    for (std::uint64_t cycle = 0; cycle < 4000; ++cycle) {
      const std::uint64_t addr = (rng.next_below(2048)) * 8;
      if (rng.bernoulli(0.3)) {
        f.dl1->store(addr, rng.next_u64(), cycle);
      } else {
        f.dl1->load(addr, cycle);
      }
      if (cycle % 512 == 0) f.dl1->check_invariants();
    }
    f.dl1->check_invariants();
  }
}

TEST(IcrCache, LineRoundTripThroughBackingAtEveryLineSize) {
  // 32-byte lines fill and write back half a 64-byte backing block,
  // 128-byte lines two blocks: one block path serves them all.
  for (const std::uint32_t line_bytes : {32u, 64u, 128u}) {
    for (const Scheme& scheme : {Scheme::BaseP(), Scheme::IcrEccPS_S()}) {
      mem::CacheGeometry g = mem::l1d_geometry_default();
      g.line_bytes = line_bytes;
      CacheFixture f(scheme, g);
      // Neighbouring lines, so a 32-byte line shares its backing block.
      const std::uint64_t lines[] = {addr_for(g, 0, 0), addr_for(g, 1, 0)};
      const auto stored = [](std::uint64_t addr) { return addr * 3 + 1; };
      std::uint64_t cycle = 0;
      for (const std::uint64_t line : lines) {
        f.dl1->load(line, cycle++);  // fill
        for (std::uint32_t w = 1; w < g.words_per_line(); w += 2) {
          f.dl1->store(line + 8 * w, stored(line + 8 * w), cycle++);
        }
      }
      // Evict both lines: every way of their sets takes another block.
      for (std::uint32_t t = 1; t <= g.associativity; ++t) {
        f.dl1->load(addr_for(g, 0, t), cycle++);
        f.dl1->load(addr_for(g, 1, t), cycle++);
      }
      EXPECT_EQ(f.dl1->stats().writebacks, 2u);
      for (const std::uint64_t line : lines) {
        for (std::uint32_t w = 0; w < g.words_per_line(); ++w) {
          const std::uint64_t addr = line + 8 * w;
          const std::uint64_t want = w % 2 == 1
                                         ? stored(addr)
                                         : mem::BackingStore::initial_word(addr);
          const auto r = f.dl1->load(addr, cycle++);  // refill, then hits
          EXPECT_FALSE(r.error_detected);
          EXPECT_EQ(r.value, want)
              << scheme.name << ", " << line_bytes << "-byte lines, "
              << std::hex << addr;
        }
      }
      // The lines after them were never written.
      const std::uint64_t next = addr_for(g, 2, 0);
      for (std::uint32_t w = 0; w < 2 * g.words_per_line(); ++w) {
        EXPECT_EQ(f.hierarchy->backing().read_word(next + 8 * w),
                  mem::BackingStore::initial_word(next + 8 * w));
      }
      f.dl1->check_invariants();
    }
  }
}

}  // namespace
}  // namespace icr::core
