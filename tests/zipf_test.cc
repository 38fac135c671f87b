#include "src/util/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace icr {
namespace {

TEST(Zipf, RejectsEmptyUniverse) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(Zipf, SamplesWithinUniverse) {
  ZipfSampler z(17, 0.9);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(z.sample(rng), 17u);
  }
}

// sample() is the rank std::lower_bound finds for the same uniform draw,
// for universes of every size class (including 1, non-powers of two, and
// more ranks than guide-table buckets).
TEST(Zipf, SampleIsLowerBoundOfTheDraw) {
  for (const std::uint64_t n : {1u, 2u, 3u, 7u, 64u, 1000u, 4097u, 70000u}) {
    const ZipfSampler z(n, 0.8);
    Rng rng(n);
    for (int i = 0; i < 20000; ++i) {
      Rng copy = rng;
      const double u = copy.next_double();
      const auto want = static_cast<std::uint64_t>(
          std::lower_bound(z.cdf().begin(), z.cdf().end(), u) -
          z.cdf().begin());
      ASSERT_EQ(z.sample(rng), want) << "n " << n << " draw " << i;
    }
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(8, 0.0);
  Rng rng(2);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 8, kDraws / 80);
}

TEST(Zipf, SkewFavoursLowRanks) {
  ZipfSampler z(1000, 1.2);
  Rng rng(3);
  int top10 = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.sample(rng) < 10) ++top10;
  }
  // With theta=1.2 the top-10 ranks carry well over a third of the mass.
  EXPECT_GT(top10, kDraws / 3);
}

TEST(Zipf, HigherThetaIsMoreSkewed) {
  Rng rng(4);
  auto top1_mass = [&](double theta) {
    ZipfSampler z(100, theta);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
      if (z.sample(rng) == 0) ++hits;
    }
    return hits;
  };
  EXPECT_GT(top1_mass(1.3), top1_mass(0.5));
}

TEST(Zipf, DeterministicGivenRngSeed) {
  ZipfSampler z(50, 0.8);
  Rng a(5), b(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(z.sample(a), z.sample(b));
  }
}

TEST(Zipf, SingleItemUniverse) {
  ZipfSampler z(1, 2.0);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

// Regression pin for the CDF construction: normalized to exactly 1.0 at the
// last rank (acc/acc is exact in IEEE arithmetic), strictly monotonic, one
// entry per rank. A drifting normalization would silently reshape every
// synthetic workload.
TEST(Zipf, CdfIsNormalizedAndMonotonic) {
  for (const double theta : {0.0, 0.5, 0.999, 1.0, 1.001, 2.5}) {
    for (const std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
      ZipfSampler z(n, theta);
      const std::vector<double>& cdf = z.cdf();
      ASSERT_EQ(cdf.size(), n) << "n=" << n << " theta=" << theta;
      EXPECT_EQ(cdf.back(), 1.0) << "n=" << n << " theta=" << theta;
      double prev = 0.0;
      for (const double v : cdf) {
        EXPECT_GT(v, prev) << "n=" << n << " theta=" << theta;
        prev = v;
      }
    }
  }
}

// theta == 1 is the classical harmonic case: cdf[k] = H(k+1) / H(n). The
// pow() in the builder must not lose this identity (the theta -> 1 limit is
// where naive implementations special-case and drift).
TEST(Zipf, ThetaOneMatchesHarmonicNumbers) {
  constexpr std::uint64_t n = 200;
  ZipfSampler z(n, 1.0);
  std::vector<double> harmonic(n);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / static_cast<double>(k + 1);
    harmonic[k] = acc;
  }
  for (std::uint64_t k = 0; k < n; ++k) {
    EXPECT_NEAR(z.cdf()[k], harmonic[k] / harmonic[n - 1], 1e-12)
        << "rank " << k;
  }
}

// Rank-probability ratios follow the power law exactly (in the CDF, not
// just statistically): P(0) / P(k) = (k+1)^theta.
TEST(Zipf, RankRatiosFollowPowerLaw) {
  constexpr double theta = 1.2;
  ZipfSampler z(64, theta);
  const std::vector<double>& cdf = z.cdf();
  const double p0 = cdf[0];
  for (const std::size_t k : {1u, 3u, 10u, 63u}) {
    const double pk = cdf[k] - cdf[k - 1];
    EXPECT_NEAR(p0 / pk, std::pow(static_cast<double>(k + 1), theta),
                1e-9 * std::pow(static_cast<double>(k + 1), theta))
        << "rank " << k;
  }
}

// No discontinuity approaching theta = 1: the top-rank mass moves smoothly
// through the harmonic point and stays monotone in theta.
TEST(Zipf, TopRankMassContinuousThroughThetaOne) {
  constexpr std::uint64_t n = 1000;
  const double below = ZipfSampler(n, 0.999).cdf()[0];
  const double at = ZipfSampler(n, 1.0).cdf()[0];
  const double above = ZipfSampler(n, 1.001).cdf()[0];
  EXPECT_LT(below, at);
  EXPECT_LT(at, above);
  EXPECT_NEAR(below, at, 2e-3);
  EXPECT_NEAR(above, at, 2e-3);
}

// n == 1 is degenerate for every skew: the single rank carries all mass and
// sampling never consults more than one CDF entry.
TEST(Zipf, SingleItemUniverseAnyTheta) {
  for (const double theta : {0.0, 0.5, 1.0, 5.0}) {
    ZipfSampler z(1, theta);
    ASSERT_EQ(z.cdf().size(), 1u);
    EXPECT_EQ(z.cdf()[0], 1.0);
    Rng rng(7);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(z.sample(rng), 0u);
  }
}

}  // namespace
}  // namespace icr
