// Sparse map from 8-byte-aligned word addresses to 64-bit values: the
// simulator's sparse memories (mem::BackingStore and the pipeline's
// architectural truth). Insert and lookup only.
//
// Open addressing with linear probing over a power-of-two table, the keys
// in one array and the values in a parallel one, so a probe for a word that
// was never written reads only keys, eight to a host cache line. A word's
// probe starts at its 64-byte block's hashed slot plus the word's index in
// the block: the words of a block sit in adjacent slots, and a line fill's
// eight lookups share one or two host cache lines. Each slot holds one
// word, so a sparse footprint costs no more per word than a dense one. The
// table doubles when 3/4 full and so stays 3/8 to 3/4 full: 21-43 bytes per
// stored word, where a std::unordered_map node and bucket take about 40-48.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace icr {

class WordMap {
 public:
  // The value stored for `word`, or nullptr. The pointer is valid until
  // the next set().
  [[nodiscard]] const std::uint64_t* find(std::uint64_t word) const noexcept {
    if (keys_.empty()) return nullptr;
    const std::size_t i = probe(word);
    return keys_[i] == word ? &values_[i] : nullptr;
  }

  // Stores `value` for `word`, inserting it if absent.
  void set(std::uint64_t word, std::uint64_t value) {
    if (4 * (size_ + 1) > 3 * keys_.size()) grow();
    const std::size_t i = probe(word);
    if (keys_[i] != word) {
      keys_[i] = word;
      ++size_;
    }
    values_[i] = value;
  }

  // Number of words stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = 1;  // never 8-byte aligned

  // The slot holding `word`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::uint64_t word) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    // Fibonacci hash of the block number, keeping the top bits.
    const auto block_home = static_cast<std::size_t>(
        ((word >> 6) * 0x9E3779B97F4A7C15ULL) >> shift_);
    std::size_t i = (block_home + ((word >> 3) & 7)) & mask;
    while (keys_[i] != word && keys_[i] != kEmpty) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys(keys_.empty() ? 64 : 2 * keys_.size(),
                                        kEmpty);
    std::vector<std::uint64_t> old_values(old_keys.size());
    old_keys.swap(keys_);
    old_values.swap(values_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(keys_.size()));
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      const std::size_t i = probe(old_keys[j]);
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<std::uint64_t> keys_;    // empty, or a power-of-two size
  std::vector<std::uint64_t> values_;  // values_[i] belongs to keys_[i]
  std::size_t size_ = 0;               // stored words
  unsigned shift_ = 64;                // keys_.size() == 2^(64 - shift_)
};

}  // namespace icr
