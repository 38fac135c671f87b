#include "src/mem/backing_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/util/rng.h"

namespace icr::mem {
namespace {

TEST(BackingStore, UntouchedWordsAreDeterministic) {
  BackingStore a, b;
  for (std::uint64_t addr = 0; addr < 1024; addr += 8) {
    EXPECT_EQ(a.read_word(addr), b.read_word(addr));
    EXPECT_EQ(a.read_word(addr), BackingStore::initial_word(addr));
  }
  EXPECT_EQ(a.touched_words(), 0u);
}

TEST(BackingStore, DifferentWordsDifferentValues) {
  BackingStore s;
  EXPECT_NE(s.read_word(0), s.read_word(8));
}

TEST(BackingStore, WriteReadRoundTrip) {
  BackingStore s;
  s.write_word(0x1000, 0xDEADBEEF);
  EXPECT_EQ(s.read_word(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(s.touched_words(), 1u);
  s.write_word(0x1000, 42);
  EXPECT_EQ(s.read_word(0x1000), 42u);
  EXPECT_EQ(s.touched_words(), 1u);
}

TEST(BackingStore, UnalignedAccessRoundsDown) {
  BackingStore s;
  s.write_word(0x1003, 99);  // lands on word 0x1000
  EXPECT_EQ(s.read_word(0x1000), 99u);
  EXPECT_EQ(s.read_word(0x1007), 99u);
  EXPECT_NE(s.read_word(0x1008), 99u);
}

TEST(BackingStore, WritesDoNotLeakToNeighbours) {
  BackingStore s;
  const std::uint64_t before_lo = s.read_word(0x2000 - 8);
  const std::uint64_t before_hi = s.read_word(0x2000 + 8);
  s.write_word(0x2000, 7);
  EXPECT_EQ(s.read_word(0x2000 - 8), before_lo);
  EXPECT_EQ(s.read_word(0x2000 + 8), before_hi);
}

// Reads `words` words through read_word, in host byte order.
std::vector<std::uint8_t> read_words(const BackingStore& s,
                                     std::uint64_t addr, std::size_t words) {
  std::vector<std::uint8_t> bytes(8 * words);
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t value = s.read_word(addr + 8 * i);
    std::memcpy(bytes.data() + 8 * i, &value, 8);
  }
  return bytes;
}

TEST(BackingStore, BlockAccessMatchesWordAccessAtEveryLineSize) {
  // Lines of 8 to 256 bytes at line-aligned addresses: a block access
  // covers part of a 64-byte map block, one, or several.
  for (std::size_t line = 8; line <= 256; line *= 2) {
    BackingStore by_block;
    BackingStore by_word;
    Rng rng(line);
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t addr = rng.next_below(64) * line;
      std::vector<std::uint8_t> got(line);
      by_block.read_block(addr, got);
      ASSERT_EQ(got, read_words(by_word, addr, line / 8))
          << line << "-byte line at " << addr;
      if (rng.bernoulli(0.5)) {
        std::vector<std::uint8_t> bytes(line);
        for (std::size_t w = 0; w < line / 8; ++w) {
          const std::uint64_t value = rng.next_u64();
          std::memcpy(bytes.data() + 8 * w, &value, 8);
          by_word.write_word(addr + 8 * w, value);
        }
        by_block.write_block(addr, bytes);
      }
      ASSERT_EQ(by_block.touched_words(), by_word.touched_words());
    }
  }
}

TEST(BackingStore, UnwrittenBlockReadsInitialWords) {
  BackingStore s;
  s.write_word(0x1010, 5);  // one written word in the first block
  std::vector<std::uint8_t> bytes(128);
  s.read_block(0x1000, bytes);
  for (std::size_t w = 0; w < 16; ++w) {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + 8 * w, 8);
    const std::uint64_t addr = 0x1000 + 8 * w;
    EXPECT_EQ(value, w == 2 ? 5u : BackingStore::initial_word(addr)) << w;
  }
}

}  // namespace
}  // namespace icr::mem
