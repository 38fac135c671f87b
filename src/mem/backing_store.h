// Functional memory: the byte-accurate contents behind the cache hierarchy.
//
// The store is sparse; untouched words read as a deterministic hash of their
// address, so every simulation is reproducible without pre-initialising
// gigabytes. The backing store holds what memory+L2 would actually contain —
// including any corrupted data a faulty writeback deposited — while the
// simulator separately tracks architectural ("golden") values to detect
// silent data corruption end-to-end.
//
// Traffic comes in two grains. A word access serves a write-through store
// and any single-word read. A block access moves a whole cache line of any
// power-of-two size: it walks the line's 64-byte blocks and costs one
// WordMap block walk per 64 bytes, not one probe per word (a line fill and
// a dirty writeback).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/util/word_map.h"

namespace icr::mem {

class BackingStore {
 public:
  BackingStore() = default;

  // 64-bit word access; `addr` is rounded down to 8-byte alignment.
  [[nodiscard]] std::uint64_t read_word(std::uint64_t addr) const;
  void write_word(std::uint64_t addr, std::uint64_t value);

  // Line access: the words from `addr` (8-byte aligned) on, 8 bytes each in
  // host byte order, as many as `bytes` holds (a multiple of 8). The same
  // bytes as read_word/write_word one word after another.
  void read_block(std::uint64_t addr, std::span<std::uint8_t> bytes) const;
  void write_block(std::uint64_t addr, std::span<const std::uint8_t> bytes);

  // The deterministic initial value of the word at `addr`.
  [[nodiscard]] static std::uint64_t initial_word(std::uint64_t addr) noexcept;

  [[nodiscard]] std::size_t touched_words() const noexcept {
    return words_.size();
  }

 private:
  WordMap words_;
};

}  // namespace icr::mem
