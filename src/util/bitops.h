// Small bit-manipulation helpers shared by the coding and cache layers.
#pragma once

#include <bit>
#include <cstdint>

namespace icr {

// True iff x is a power of two (x > 0).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

// log2 of a power of two.
[[nodiscard]] constexpr unsigned log2_pow2(std::uint64_t x) noexcept {
  return static_cast<unsigned>(std::countr_zero(x));
}

// Parity (XOR-reduction) of a 64-bit word: 1 if odd number of set bits.
[[nodiscard]] constexpr unsigned parity64(std::uint64_t x) noexcept {
  // Unlike popcount, this folds to the x86 parity flag without -mpopcnt.
  return static_cast<unsigned>(__builtin_parityll(x));
}

}  // namespace icr
