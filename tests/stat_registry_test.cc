#include "src/obs/stat_registry.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace icr::obs {
namespace {

TEST(Log2Histogram, BucketBoundaries) {
  // Bucket 0 is exclusively the value zero.
  EXPECT_EQ(Log2Histogram::bucket_index(0), 0u);
  // Bucket 1 + k holds [2^k, 2^(k+1)).
  EXPECT_EQ(Log2Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Log2Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Log2Histogram::bucket_index((1ull << 31) - 1), 31u);
  EXPECT_EQ(Log2Histogram::bucket_index(1ull << 31), 32u);
  EXPECT_EQ(Log2Histogram::bucket_index((1ull << 32) - 1), 32u);
}

TEST(Log2Histogram, OverflowBucket) {
  EXPECT_EQ(Log2Histogram::bucket_index(1ull << 32),
            Log2Histogram::kOverflowBucket);
  EXPECT_EQ(Log2Histogram::bucket_index(~0ull),
            Log2Histogram::kOverflowBucket);

  Log2Histogram h;
  h.record(1ull << 32);
  h.record(~0ull);
  EXPECT_EQ(h.bucket(Log2Histogram::kOverflowBucket), 2u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Log2Histogram, LowerBoundsInvertBucketIndex) {
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(3), 4u);
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(Log2Histogram::kOverflowBucket),
            1ull << 32);
  // Every bucket's lower bound maps back into that bucket.
  for (std::uint32_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    EXPECT_EQ(Log2Histogram::bucket_index(Log2Histogram::bucket_lower_bound(b)),
              b)
        << "bucket " << b;
  }
}

TEST(Log2Histogram, RecordAndMerge) {
  Log2Histogram a;
  a.record(0);
  a.record(5);
  a.record(5);

  Log2Histogram b;
  b.record(5);
  b.record(1024);

  a.merge(b);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(a.bucket(0), 1u);                              // the zero
  EXPECT_EQ(a.bucket(Log2Histogram::bucket_index(5)), 3u); // three fives
  EXPECT_EQ(a.bucket(Log2Histogram::bucket_index(1024)), 1u);
}

TEST(StatRegistry, CountersAreLiveViews) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  StatRegistry reg;
  reg.register_counter("cache.hits", &hits);
  reg.register_counter("cache.misses", &misses);

  hits = 7;
  misses = 3;
  EXPECT_EQ(reg.snapshot_counters(), (std::vector<std::uint64_t>{7, 3}));
  hits = 8;
  EXPECT_EQ(reg.counter_value("cache.hits"), 8u);
  EXPECT_EQ(reg.counter_value("no.such.counter"), 0u);
  EXPECT_EQ(reg.counter_names(),
            (std::vector<std::string>{"cache.hits", "cache.misses"}));
}

TEST(StatRegistry, GaugesEvaluateLazily) {
  std::uint64_t level = 0;
  StatRegistry reg;
  reg.register_gauge("queue.depth", [&level] { return level; });
  level = 42;
  EXPECT_EQ(reg.snapshot_gauges(), (std::vector<std::uint64_t>{42}));
}

}  // namespace
}  // namespace icr::obs
