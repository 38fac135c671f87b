#include "src/mem/backing_store.h"

#include "src/util/rng.h"

namespace icr::mem {

namespace {
constexpr std::uint64_t word_key(std::uint64_t addr) noexcept {
  return addr & ~std::uint64_t{7};
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

}  // namespace icr::mem
