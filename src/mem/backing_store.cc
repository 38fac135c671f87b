#include "src/mem/backing_store.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace icr::mem {

namespace {
constexpr std::uint64_t word_key(std::uint64_t addr) noexcept {
  return addr & ~std::uint64_t{7};
}

constexpr std::uint64_t kMapBlockBytes = 8 * WordMap::kBlockWords;

// Calls `part(block, first, count, offset)` for each 64-byte map block the
// `bytes`-long range from the 8-byte-aligned `addr` covers: words
// [first, first + count) of `block`, at byte `offset` of the range.
template <typename Part>
void for_each_map_block(std::uint64_t addr, std::size_t bytes, Part part) {
  ICR_CHECK(addr % 8 == 0 && bytes % 8 == 0);
  for (std::size_t offset = 0; offset < bytes;) {
    const std::uint64_t at = addr + offset;
    const std::uint64_t block = at & ~(kMapBlockBytes - 1);
    const auto first = static_cast<unsigned>((at - block) / 8);
    const auto count = static_cast<unsigned>(
        std::min<std::size_t>(WordMap::kBlockWords - first,
                              (bytes - offset) / 8));
    part(block, first, count, offset);
    offset += 8 * std::size_t{count};
  }
}
}  // namespace

std::uint64_t BackingStore::initial_word(std::uint64_t addr) noexcept {
  return mix64(word_key(addr) ^ 0xC0FFEE1234ULL);
}

std::uint64_t BackingStore::read_word(std::uint64_t addr) const {
  const std::uint64_t* value = words_.find(word_key(addr));
  return value != nullptr ? *value : initial_word(addr);
}

void BackingStore::write_word(std::uint64_t addr, std::uint64_t value) {
  words_.set(word_key(addr), value);
}

void BackingStore::read_block(std::uint64_t addr,
                              std::span<std::uint8_t> bytes) const {
  for_each_map_block(addr, bytes.size(), [&](std::uint64_t block,
                                             unsigned first, unsigned count,
                                             std::size_t offset) {
    std::uint64_t values[WordMap::kBlockWords] = {};
    const unsigned stored = words_.find_block(block, values);
    for (unsigned k = first; k < first + count; ++k) {
      if (((stored >> k) & 1u) == 0) values[k] = initial_word(block + 8 * k);
    }
    // A whole block copies with a fixed size, which compiles to plain moves
    // instead of a memcpy call.
    if (count == WordMap::kBlockWords) {
      std::memcpy(bytes.data() + offset, values, sizeof values);
    } else {
      std::memcpy(bytes.data() + offset, values + first, 8 * count);
    }
  });
}

void BackingStore::write_block(std::uint64_t addr,
                               std::span<const std::uint8_t> bytes) {
  for_each_map_block(addr, bytes.size(), [&](std::uint64_t block,
                                             unsigned first, unsigned count,
                                             std::size_t offset) {
    std::uint64_t values[WordMap::kBlockWords] = {};
    std::memcpy(values + first, bytes.data() + offset, 8 * count);
    words_.set_block(block, values, ((1u << count) - 1) << first);
  });
}

}  // namespace icr::mem
