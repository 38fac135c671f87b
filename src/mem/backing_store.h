// Functional memory: the byte-accurate contents behind the cache hierarchy.
//
// The store is sparse; untouched words read as a deterministic hash of their
// address, so every simulation is reproducible without pre-initialising
// gigabytes. The backing store holds what memory+L2 would actually contain —
// including any corrupted data a faulty writeback deposited — while the
// simulator separately tracks architectural ("golden") values to detect
// silent data corruption end-to-end.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/util/word_map.h"

namespace icr::mem {

class BackingStore {
 public:
  BackingStore() = default;

  // 64-bit word access; `addr` is rounded down to 8-byte alignment.
  [[nodiscard]] std::uint64_t read_word(std::uint64_t addr) const;
  void write_word(std::uint64_t addr, std::uint64_t value);

  // The deterministic initial value of the word at `addr`.
  [[nodiscard]] static std::uint64_t initial_word(std::uint64_t addr) noexcept;

  [[nodiscard]] std::size_t touched_words() const noexcept {
    return words_.size();
  }

 private:
  WordMap words_;
};

}  // namespace icr::mem
