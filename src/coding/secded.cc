#include "src/coding/secded.h"

#include <array>

#include "src/util/bitops.h"

namespace icr {
namespace {

constexpr unsigned kCodewordBits = 71;  // 64 data + 7 Hamming check bits

// position_of_data[d] = codeword position (1-based) of data bit d.
// data_at_position[p] = data bit index stored at position p, or -1.
struct PositionTables {
  std::array<unsigned, 64> position_of_data{};
  std::array<int, kCodewordBits + 1> data_at_position{};

  constexpr PositionTables() {
    for (auto& v : data_at_position) v = -1;
    unsigned d = 0;
    for (unsigned p = 1; p <= kCodewordBits; ++p) {
      if (is_pow2(p)) continue;  // power-of-two positions hold check bits
      position_of_data[d] = p;
      data_at_position[p] = static_cast<int>(d);
      ++d;
    }
  }
};

constexpr PositionTables kTables{};

// column_masks[c] selects the data bits whose codeword position has bit c
// set, so check bit c is just the parity of (data & mask) — seven popcounts
// instead of a 64-iteration data-dependent loop on the encode hot path.
struct CheckMasks {
  std::array<std::uint64_t, 7> column{};

  constexpr CheckMasks() {
    for (unsigned d = 0; d < 64; ++d) {
      const unsigned p = kTables.position_of_data[d];
      for (unsigned c = 0; c < 7; ++c) {
        if ((p >> c) & 1U) column[c] |= 1ULL << d;
      }
    }
  }
};

constexpr CheckMasks kMasks{};

// The checks are linear over GF(2), so a word's checks are the XOR of what
// each of its bytes contributes on its own. entry[i][b]: bits 0..6 hold the
// Hamming checks, bit 7 the parity, of the word whose only nonzero byte is
// byte i == b. Eight lookups replace eight popcounts per encode/decode.
struct ByteTables {
  std::array<std::array<std::uint8_t, 256>, 8> entry{};

  constexpr ByteTables() {
    for (unsigned i = 0; i < 8; ++i) {
      for (unsigned b = 0; b < 256; ++b) {
        const std::uint64_t word = std::uint64_t{b} << (8 * i);
        unsigned e = parity64(word) << 7;
        for (unsigned c = 0; c < 7; ++c) {
          e |= parity64(word & kMasks.column[c]) << c;
        }
        entry[i][b] = static_cast<std::uint8_t>(e);
      }
    }
  }
};

constexpr ByteTables kBytes{};

// Bits 0..6: the seven Hamming checks of `data`; bit 7: its parity.
// Written out as a tree of independent lookups: a rolled loop compiles to a
// serial chain of variable shifts and byte-register XORs.
std::uint8_t checks_and_parity(std::uint64_t data) noexcept {
  const auto& t = kBytes.entry;
  const unsigned lo = (t[0][data & 0xFF] ^ t[1][(data >> 8) & 0xFF]) ^
                      (t[2][(data >> 16) & 0xFF] ^ t[3][(data >> 24) & 0xFF]);
  const unsigned hi = (t[4][(data >> 32) & 0xFF] ^ t[5][(data >> 40) & 0xFF]) ^
                      (t[6][(data >> 48) & 0xFF] ^ t[7][(data >> 56) & 0xFF]);
  return static_cast<std::uint8_t>(lo ^ hi);
}

}  // namespace

namespace secded_internal {
unsigned data_bit_position(unsigned data_bit) noexcept {
  return kTables.position_of_data[data_bit];
}
}  // namespace secded_internal

std::uint8_t secded_encode(std::uint64_t data) noexcept {
  const std::uint8_t checks = checks_and_parity(data);
  const std::uint8_t hamming = checks & 0x7F;
  // Overall parity covers every codeword bit: all data bits plus the seven
  // Hamming checks. Stored in bit 7 of the check byte.
  const unsigned overall = (checks >> 7) ^ parity64(hamming);
  return static_cast<std::uint8_t>(hamming |
                                   (static_cast<std::uint8_t>(overall) << 7));
}

SecDedResult secded_decode(std::uint64_t data, std::uint8_t check) noexcept {
  const std::uint8_t stored_hamming = check & 0x7F;
  const unsigned stored_overall = (check >> 7) & 1U;

  const std::uint8_t checks = checks_and_parity(data);
  const std::uint8_t syndrome =
      static_cast<std::uint8_t>((checks & 0x7F) ^ stored_hamming);
  const unsigned parity_now =
      (checks >> 7) ^ parity64(stored_hamming) ^ stored_overall;

  SecDedResult result;
  result.data = data;

  if (syndrome == 0 && parity_now == 0) {
    result.status = SecDedStatus::kClean;
    return result;
  }
  if (parity_now == 1) {
    // Odd overall parity: exactly one bit flipped (or an odd >1 number,
    // indistinguishable — SEC-DED guarantees cover only <= 2 flips).
    if (syndrome == 0) {
      result.status = SecDedStatus::kCorrectedCheck;  // overall bit flipped
      return result;
    }
    if (is_pow2(syndrome)) {
      result.status = SecDedStatus::kCorrectedCheck;  // a Hamming bit flipped
      return result;
    }
    const int data_bit =
        syndrome <= kCodewordBits ? kTables.data_at_position[syndrome] : -1;
    if (data_bit < 0) {
      // Syndrome points outside the codeword: >= 3 flips; report detection.
      result.status = SecDedStatus::kDetectedDouble;
      return result;
    }
    result.data = data ^ (1ULL << data_bit);
    result.status = SecDedStatus::kCorrectedData;
    return result;
  }
  // Even overall parity with a non-zero syndrome: double-bit error.
  result.status = SecDedStatus::kDetectedDouble;
  return result;
}

}  // namespace icr
