// Byte-granularity parity, the paper's light-weight protection baseline.
//
// Each 8-bit datum carries one parity bit (12.5% storage overhead). For a
// 64-bit word this is an 8-bit parity vector, one bit per byte. Parity
// detects any odd number of flipped bits within a byte — in particular every
// single-bit error — but cannot correct; recovery must come from a replica
// (ICR), from L2 (clean blocks), or is impossible (dirty unreplicated block).
#pragma once

#include <cstdint>

namespace icr {

// Parity vector for `word`: bit b is the XOR of the 8 bits of byte b.
// Even-parity convention: stored bit equals the computed XOR, so a clean
// check is `byte_parity(word) == stored`.
[[nodiscard]] inline std::uint8_t byte_parity(std::uint64_t word) noexcept {
  // Fold each byte onto its low bit: XOR halves repeatedly, then gather the
  // low bit of every byte.
  std::uint64_t x = word;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  x &= 0x0101010101010101ULL;
  // Compact the 8 low-bits-of-bytes into one byte.
  return static_cast<std::uint8_t>((x * 0x0102040810204080ULL) >> 56);
}

// Bitmask of bytes whose parity disagrees with `stored` (0 == clean word).
[[nodiscard]] inline std::uint8_t parity_mismatch(std::uint64_t word,
                                                  std::uint8_t stored) noexcept {
  return static_cast<std::uint8_t>(byte_parity(word) ^ stored);
}

// True iff the word verifies against its stored parity vector.
[[nodiscard]] inline bool parity_ok(std::uint64_t word,
                                    std::uint8_t stored) noexcept {
  return parity_mismatch(word, stored) == 0;
}

}  // namespace icr
