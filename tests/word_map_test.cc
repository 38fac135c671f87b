// WordMap against std::unordered_map: word and block operations agree on
// every lookup and on the stored-word count, across table doublings, at
// block 0 (the empty-slot sentinel is 1), at blocks near 2^64, and for
// probe clusters that wrap past the end of the table.
#include "src/util/word_map.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace icr {
namespace {

constexpr unsigned kWords = WordMap::kBlockWords;

// WordMap beside a reference map, checked one operation at a time.
class Differential {
 public:
  void set(std::uint64_t word, std::uint64_t value) {
    map_.set(word, value);
    ref_[word] = value;
    ASSERT_EQ(map_.size(), ref_.size());
  }

  void set_block(std::uint64_t block, const std::uint64_t (&values)[kWords],
                 unsigned words) {
    map_.set_block(block, values, words);
    for (unsigned k = 0; k < kWords; ++k) {
      if ((words >> k) & 1u) ref_[block + 8 * k] = values[k];
    }
    ASSERT_EQ(map_.size(), ref_.size());
  }

  void check_word(std::uint64_t word) const {
    const std::uint64_t* got = map_.find(word);
    const auto want = ref_.find(word);
    ASSERT_EQ(got != nullptr, want != ref_.end()) << std::hex << word;
    if (got != nullptr) {
      ASSERT_EQ(*got, want->second) << std::hex << word;
    }
  }

  void check_block(std::uint64_t block) const {
    constexpr std::uint64_t kUntouched = 0x5EED5EED5EED5EEDULL;
    std::uint64_t values[kWords];
    for (std::uint64_t& v : values) v = kUntouched;
    const unsigned found = map_.find_block(block, values);
    for (unsigned k = 0; k < kWords; ++k) {
      const auto want = ref_.find(block + 8 * k);
      ASSERT_EQ(((found >> k) & 1u) != 0, want != ref_.end())
          << std::hex << block << " word " << k;
      ASSERT_EQ(values[k], want != ref_.end() ? want->second : kUntouched)
          << std::hex << block << " word " << k;
    }
  }

  void check_all() const {
    for (const auto& [word, value] : ref_) {
      check_word(word);
      check_block(word & ~std::uint64_t{63});
    }
  }

  [[nodiscard]] std::size_t size() const { return ref_.size(); }

 private:
  WordMap map_;
  std::unordered_map<std::uint64_t, std::uint64_t> ref_;
};

// A pool of 64-byte blocks: the low blocks from 0, the top blocks below
// 2^64, and random ones.
std::vector<std::uint64_t> block_pool(Rng& rng, std::size_t random_blocks) {
  std::vector<std::uint64_t> pool;
  for (std::uint64_t b = 0; b < 16; ++b) {
    pool.push_back(b * 64);
    pool.push_back(~std::uint64_t{63} - b * 64);
  }
  for (std::size_t i = 0; i < random_blocks; ++i) {
    pool.push_back(rng.next_u64() & ~std::uint64_t{63});
  }
  return pool;
}

TEST(WordMap, RandomWordAndBlockOperationsMatchUnorderedMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    // 2,000 blocks hold up to 16,000 words: the table doubles from 64 to
    // 32,768 slots on the way.
    const std::vector<std::uint64_t> pool = block_pool(rng, 2000);
    Differential d;
    for (int op = 0; op < 60000; ++op) {
      const std::uint64_t block = pool[rng.next_below(pool.size())];
      const auto k = static_cast<unsigned>(rng.next_below(kWords));
      switch (rng.next_below(4)) {
        case 0:
          ASSERT_NO_FATAL_FAILURE(d.set(block + 8 * k, rng.next_u64()));
          break;
        case 1: {
          std::uint64_t values[kWords];
          for (std::uint64_t& v : values) v = rng.next_u64();
          // Whole blocks half the time, else any subset (empty included).
          const auto words = rng.bernoulli(0.5)
                                 ? WordMap::kAllWords
                                 : static_cast<unsigned>(rng.next_below(256));
          ASSERT_NO_FATAL_FAILURE(d.set_block(block, values, words));
          break;
        }
        case 2:
          ASSERT_NO_FATAL_FAILURE(d.check_word(block + 8 * k));
          break;
        default:
          ASSERT_NO_FATAL_FAILURE(d.check_block(block));
      }
    }
    EXPECT_GT(d.size(), 8000u) << "the table never grew past a few doublings";
    ASSERT_NO_FATAL_FAILURE(d.check_all());
  }
}

TEST(WordMap, EmptyMapFindsNothing) {
  WordMap map;
  std::uint64_t values[kWords] = {};
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find_block(0, values), 0u);
  map.set_block(0x40, values, 0);  // storing no words stores nothing
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find_block(0x40, values), 0u);
}

TEST(WordMap, BlockZeroIsNotTheEmptySentinel) {
  // An empty slot holds the key 1, which sits inside block 0's range.
  Differential d;
  ASSERT_NO_FATAL_FAILURE(d.check_block(0));
  ASSERT_NO_FATAL_FAILURE(d.set(8, 11));
  ASSERT_NO_FATAL_FAILURE(d.check_block(0));
  ASSERT_NO_FATAL_FAILURE(d.check_word(0));
  const std::uint64_t values[kWords] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_NO_FATAL_FAILURE(d.set_block(0, values, 0b10000001));
  ASSERT_NO_FATAL_FAILURE(d.check_block(0));
  ASSERT_NO_FATAL_FAILURE(d.set_block(0, values, WordMap::kAllWords));
  ASSERT_NO_FATAL_FAILURE(d.check_all());
}

TEST(WordMap, BlocksNearTheTopOfTheAddressSpace) {
  Differential d;
  const std::uint64_t top = ~std::uint64_t{63};  // 2^64 - 64
  const std::uint64_t values[kWords] = {9, 8, 7, 6, 5, 4, 3, 2};
  ASSERT_NO_FATAL_FAILURE(d.set_block(top, values, WordMap::kAllWords));
  ASSERT_NO_FATAL_FAILURE(d.set_block(top - 64, values, 0b01010101));
  ASSERT_NO_FATAL_FAILURE(d.set(~std::uint64_t{7}, 42));  // 2^64 - 8
  ASSERT_NO_FATAL_FAILURE(d.check_block(top - 128));
  ASSERT_NO_FATAL_FAILURE(d.check_block(0));
  ASSERT_NO_FATAL_FAILURE(d.check_all());
  EXPECT_EQ(d.size(), 12u);
}

// The first slot WordMap probes for a block in a table of `slots` slots:
// the same Fibonacci hash of the block number as the map's.
std::size_t home_slot(std::uint64_t block, std::size_t slots) {
  const int bits = std::countr_zero(slots);
  return static_cast<std::size_t>(((block >> 6) * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - bits));
}

TEST(WordMap, ProbeClustersWrapPastTheEndOfTheTable) {
  // Blocks whose home is the last slot of the 64-slot first table: their
  // words, and every probe for them, wrap round to slot 0 and on.
  std::vector<std::uint64_t> wrapping;
  for (std::uint64_t b = 0; wrapping.size() < 6; ++b) {
    if (home_slot(b * 64, 64) == 63) wrapping.push_back(b * 64);
  }
  const std::uint64_t never_written = wrapping.back();
  wrapping.pop_back();
  Differential d;
  std::uint64_t values[kWords];
  for (std::size_t i = 0; i < wrapping.size(); ++i) {
    for (unsigned k = 0; k < kWords; ++k) values[k] = i * 100 + k;
    // Alternate block and word writes into the same cluster.
    if (i % 2 == 0) {
      ASSERT_NO_FATAL_FAILURE(d.set_block(wrapping[i], values,
                                          WordMap::kAllWords));
    } else {
      for (unsigned k = 0; k < kWords; ++k) {
        ASSERT_NO_FATAL_FAILURE(d.set(wrapping[i] + 8 * k, values[k]));
      }
    }
    // A block that was never written, homed in the same cluster.
    ASSERT_NO_FATAL_FAILURE(d.check_block(never_written));
    ASSERT_NO_FATAL_FAILURE(d.check_all());
  }
  EXPECT_EQ(d.size(), 40u);  // still the 64-slot table (3/4 is 48)
  // Grow through two doublings and check the clusters again.
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    for (unsigned k = 0; k < kWords; ++k) values[k] = rng.next_u64();
    ASSERT_NO_FATAL_FAILURE(
        d.set_block(rng.next_u64() & ~std::uint64_t{63}, values,
                    WordMap::kAllWords));
  }
  ASSERT_NO_FATAL_FAILURE(d.check_all());
}

TEST(WordMap, BlockWriteEqualsWordWrites) {
  // A block write stores what the word writes it stands for store, and
  // over-writes words already present in place.
  Rng rng(11);
  WordMap by_block;
  WordMap by_word;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t block = rng.next_below(512) * 64;
    std::uint64_t values[kWords];
    for (std::uint64_t& v : values) v = rng.next_u64();
    const auto words = static_cast<unsigned>(rng.next_below(256));
    by_block.set_block(block, values, words);
    for (unsigned k = 0; k < kWords; ++k) {
      if ((words >> k) & 1u) by_word.set(block + 8 * k, values[k]);
    }
    ASSERT_EQ(by_block.size(), by_word.size());
  }
  for (std::uint64_t block = 0; block < 512 * 64; block += 64) {
    std::uint64_t a[kWords] = {};
    std::uint64_t b[kWords] = {};
    ASSERT_EQ(by_block.find_block(block, a), by_word.find_block(block, b));
    for (unsigned k = 0; k < kWords; ++k) ASSERT_EQ(a[k], b[k]);
  }
}

}  // namespace
}  // namespace icr
