// Sparse map from 8-byte-aligned word addresses to 64-bit values: the
// simulator's sparse memories (mem::BackingStore and the pipeline's
// architectural truth). Insert and lookup only, one word at a time or one
// 64-byte block at a time.
//
// Open addressing with linear probing over a power-of-two table, the keys
// in one array and the values in a parallel one, so a probe for a word that
// was never written reads only keys, eight to a host cache line. A word's
// probe starts at its 64-byte block's hashed slot (the block's home) plus
// the word's index in the block, so the words of a block sit in adjacent
// slots. A block operation hashes the block once and walks from its home
// once: every stored word of the block lies between the home and the first
// empty slot at or past home + 7, so that one walk finds all of them, and
// a block never written costs one short walk instead of eight failed
// probes. Each slot holds one word, so a sparse footprint costs no more per
// word than a dense one. The table doubles when 3/4 full and so stays 3/8
// to 3/4 full: 21-43 bytes per stored word, where a std::unordered_map
// node and bucket take about 40-48. Only an insert grows the table, so a
// block write grows it at the same fill as the word writes it stands for.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace icr {

class WordMap {
 public:
  static constexpr unsigned kBlockWords = 8;  // words in a 64-byte block
  static constexpr unsigned kAllWords = (1u << kBlockWords) - 1;

  // The value stored for `word`, or nullptr. The pointer is valid until
  // the next set() or set_block().
  [[nodiscard]] const std::uint64_t* find(std::uint64_t word) const noexcept {
    if (keys_.empty()) return nullptr;
    const std::size_t i = probe(word);
    return keys_[i] == word ? &values_[i] : nullptr;
  }

  // Stores `value` for `word`, inserting it if absent.
  void set(std::uint64_t word, std::uint64_t value) {
    if (keys_.empty()) grow();
    std::size_t i = probe(word);
    if (keys_[i] != word) {
      if (4 * (size_ + 1) > 3 * keys_.size()) {
        grow();
        i = probe(word);
      }
      keys_[i] = word;
      ++size_;
    }
    values_[i] = value;
  }

  // Looks up the words of the 64-byte-aligned `block`. Bit k of the result
  // is set when word k (address block + 8k) is stored, and values[k] then
  // holds its value; the other values[k] are left untouched.
  [[nodiscard]] unsigned find_block(std::uint64_t block,
                                    std::uint64_t (&values)[kBlockWords])
      const noexcept {
    return walk_block(block, [&](unsigned k, std::size_t slot) {
      values[k] = values_[slot];
    });
  }

  // Stores values[k] for word k of the 64-byte-aligned `block`, for each
  // bit k set in `words`; the same as set(block + 8k, values[k]) for each
  // such k in ascending order.
  void set_block(std::uint64_t block,
                 const std::uint64_t (&values)[kBlockWords], unsigned words) {
    std::size_t slots[kBlockWords] = {};
    const auto locate = [&slots](unsigned k, std::size_t slot) {
      slots[k] = slot;
    };
    unsigned found = walk_block(block, locate);
    const unsigned fresh = words & ~found;
    const auto inserts = static_cast<std::size_t>(std::popcount(fresh));
    if (inserts != 0 && 4 * (size_ + inserts) > 3 * keys_.size()) {
      // The word writes would grow once on the way, and only once: the
      // table holds at least 64 slots, so a doubling leaves room for eight
      // more words.
      grow();
      found = walk_block(block, locate);
    }
    for (unsigned k = 0; k < kBlockWords; ++k) {
      if (((words & found) >> k) & 1u) values_[slots[k]] = values[k];
    }
    if (inserts == 0) return;
    // Word k belongs in the first empty slot at or past home + k; filling
    // them in ascending k moves one cursor forward.
    const std::size_t mask = keys_.size() - 1;
    const std::size_t home = home_slot(block);
    std::size_t offset = 0;
    for (unsigned k = 0; k < kBlockWords; ++k) {
      if (((fresh >> k) & 1u) == 0) continue;
      if (offset < k) offset = k;
      while (keys_[(home + offset) & mask] != kEmpty) ++offset;
      const std::size_t i = (home + offset) & mask;
      keys_[i] = block + 8 * k;
      values_[i] = values[k];
      ++offset;
    }
    size_ += inserts;
  }

  // Number of words stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = 1;  // never 8-byte aligned

  // The block's home slot: a Fibonacci hash of the block number, keeping
  // the top bits.
  [[nodiscard]] std::size_t home_slot(std::uint64_t block) const noexcept {
    return static_cast<std::size_t>(((block >> 6) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  // The slot holding `word`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::uint64_t word) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = (home_slot(word) + ((word >> 3) & 7)) & mask;
    while (keys_[i] != word && keys_[i] != kEmpty) i = (i + 1) & mask;
    return i;
  }

  // One walk from the block's home, calling visit(k, slot) for each stored
  // word k of the block. Returns the mask of the words found.
  template <typename Visit>
  unsigned walk_block(std::uint64_t block, Visit visit) const noexcept {
    if (keys_.empty()) return 0;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = home_slot(block);
    unsigned found = 0;
    for (std::size_t walked = 0; found != kAllWords;
         ++walked, i = (i + 1) & mask) {
      const std::uint64_t key = keys_[i];
      if (key == kEmpty) {
        if (walked >= kBlockWords - 1) break;
        continue;
      }
      // Keys are 8-byte aligned, so an offset below 64 names a word.
      const std::uint64_t offset = key - block;
      if (offset < 8 * kBlockWords) {
        const auto k = static_cast<unsigned>(offset >> 3);
        visit(k, i);
        found |= 1u << k;
      }
    }
    return found;
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
