// Background scrubbing extension: errors are repaired between accesses.
#include <gtest/gtest.h>

#include "src/baselines/rcache.h"
#include "src/core/icr_cache.h"
#include "tests/test_util.h"

namespace icr::core {
namespace {

using test::CacheFixture;

// Corrupts the primary copy of `addr` and returns (set, way).
void corrupt(core::IcrCache& c, std::uint64_t addr) {
  const auto& g = c.geometry();
  const std::uint32_t set = g.set_index(addr);
  for (std::uint32_t w = 0; w < g.associativity; ++w) {
    const IcrLine& l = c.line(set, w);
    if (l.valid && !l.replica && l.block_addr == g.block_address(addr)) {
      c.flip_data_bit(set, w, 0, 0);
      return;
    }
  }
  FAIL() << "block not resident";
}

// Runs the scrubber until it has swept every set once.
void full_sweep(core::IcrCache& c, std::uint64_t start_cycle) {
  const std::uint64_t interval = c.scheme().scrub_interval;
  for (std::uint32_t i = 0; i <= c.num_sets(); ++i) {
    c.advance_scrubber(start_cycle + i * interval);
  }
}

TEST(Scrubber, DisabledByDefault) {
  CacheFixture f(Scheme::BaseP());
  f.dl1->load(0x1000, 0);
  for (std::uint64_t cycle = 0; cycle < 10000; ++cycle) {
    f.dl1->advance_scrubber(cycle);
  }
  EXPECT_EQ(f.dl1->stats().scrub_lines_checked, 0u);
}

TEST(Scrubber, RepairsCleanBlockBeforeLoadSeesIt) {
  CacheFixture f(Scheme::BaseP().with_scrubbing(10));
  f.dl1->load(0x1000, 0);
  corrupt(*f.dl1, 0x1000);
  full_sweep(*f.dl1, 10);
  EXPECT_GE(f.dl1->stats().scrub_corrections, 1u);
  // The subsequent load is clean: no detection, correct value.
  const auto r = f.dl1->load(0x1000, 100000);
  EXPECT_FALSE(r.error_detected);
  EXPECT_EQ(r.value, mem::BackingStore::initial_word(0x1000));
}

TEST(Scrubber, RepairsDirtyBlockFromReplica) {
  CacheFixture f(Scheme::IcrPPS_S().with_scrubbing(10));
  f.dl1->store(0x1000, 42, 0);  // dirty + replicated
  corrupt(*f.dl1, 0x1000);
  full_sweep(*f.dl1, 10);
  EXPECT_GE(f.dl1->stats().scrub_corrections, 1u);
  const auto r = f.dl1->load(0x1000, 100000);
  EXPECT_FALSE(r.error_detected);
  EXPECT_EQ(r.value, 42u);
}

TEST(Scrubber, EccSchemeScrubsWithSecDed) {
  CacheFixture f(Scheme::BaseECC().with_scrubbing(10));
  f.dl1->store(0x1000, 42, 0);  // dirty; ECC protected
  corrupt(*f.dl1, 0x1000);
  full_sweep(*f.dl1, 10);
  EXPECT_GE(f.dl1->stats().scrub_corrections, 1u);
  const auto r = f.dl1->load(0x1000, 100000);
  EXPECT_FALSE(r.error_detected);
  EXPECT_EQ(r.value, 42u);
}

TEST(Scrubber, DirtyParityOnlyWordStaysDetectable) {
  CacheFixture f(Scheme::BaseP().with_scrubbing(10));
  f.dl1->store(0x1000, 42, 0);  // dirty, unreplicated, parity only
  corrupt(*f.dl1, 0x1000);
  full_sweep(*f.dl1, 10);
  EXPECT_GE(f.dl1->stats().scrub_uncorrectable, 1u);
  // The load still detects (and counts) the loss — the scrubber must not
  // launder it into silent corruption.
  const auto r = f.dl1->load(0x1000, 100000);
  EXPECT_TRUE(r.error_detected);
  EXPECT_TRUE(r.unrecoverable);
}

TEST(Scrubber, NeverConsultsTheRcache) {
  // The R-Cache is a load-path rung only: a scrubbed dirty parity-only word
  // stays uncorrectable with a duplicate at hand, and the consuming load
  // then recovers it from the R-Cache.
  CacheFixture f(Scheme::BaseP().with_scrubbing(10));
  baselines::RCache rcache(64);
  f.dl1->attach_rcache(&rcache);
  f.dl1->store(0x1000, 42, 0);
  corrupt(*f.dl1, 0x1000);
  full_sweep(*f.dl1, 10);
  EXPECT_GE(f.dl1->stats().scrub_uncorrectable, 1u);
  EXPECT_EQ(f.dl1->stats().scrub_corrections, 0u);
  EXPECT_EQ(f.dl1->stats().errors_corrected_by_rcache, 0u);
  EXPECT_EQ(rcache.stats().lookups, 0u);
  const auto r = f.dl1->load(0x1000, 100000);
  EXPECT_TRUE(r.error_detected);
  EXPECT_EQ(r.recovery, IcrCache::AccessOutcome::Recovery::kRcache);
  EXPECT_EQ(r.value, 42u);
}

TEST(Scrubber, PreventsEccDoubleBitAccumulation) {
  // Two strikes on the same word, far apart in time: with scrubbing the
  // first is repaired before the second arrives, so SEC-DED never faces a
  // double-bit error.
  CacheFixture with(Scheme::BaseECC().with_scrubbing(10));
  CacheFixture without(Scheme::BaseECC());
  for (auto* f : {&with, &without}) {
    f->dl1->store(0x1000, 42, 0);
  }
  auto strike = [](core::IcrCache& c, std::uint32_t bit) {
    const auto& g = c.geometry();
    const std::uint32_t set = g.set_index(0x1000);
    for (std::uint32_t w = 0; w < g.associativity; ++w) {
      const IcrLine& l = c.line(set, w);
      if (l.valid && l.block_addr == g.block_address(0x1000)) {
        c.flip_data_bit(set, w, 0, bit);
      }
    }
  };
  strike(*with.dl1, 0);
  strike(*without.dl1, 0);
  full_sweep(*with.dl1, 10);  // repairs the first flip in `with`
  strike(*with.dl1, 1);
  strike(*without.dl1, 1);

  const auto r_with = with.dl1->load(0x1000, 100000);
  const auto r_without = without.dl1->load(0x1000, 100000);
  EXPECT_TRUE(r_with.error_recovered);  // single bit: corrected
  EXPECT_EQ(r_with.value, 42u);
  EXPECT_TRUE(r_without.unrecoverable);  // accumulated double bit
}

TEST(Scrubber, ChecksLinesRoundRobin) {
  CacheFixture f(Scheme::BaseP().with_scrubbing(5));
  // Fill several sets.
  for (std::uint64_t b = 0; b < 32; ++b) f.dl1->load(b * 64, b);
  full_sweep(*f.dl1, 100);
  EXPECT_GE(f.dl1->stats().scrub_lines_checked, 32u);
}

}  // namespace
}  // namespace icr::core
