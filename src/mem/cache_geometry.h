// Cache geometry: sizes, index/tag decomposition, address helpers.
#pragma once

#include <cstdint>

#include "src/util/bitops.h"

namespace icr::mem {

// Describes a set-associative cache. All fields must be powers of two and
// consistent (size = sets * ways * line). Validated by `validate()`.
struct CacheGeometry {
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 4;

  // Throws std::invalid_argument if the geometry is malformed.
  void validate() const;

  // validate() admits powers of two only, so the index math below is shifts
  // and masks.
  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return size_bytes >> (log2_pow2(line_bytes) + log2_pow2(associativity));
  }
  // `index` modulo num_sets().
  [[nodiscard]] std::uint32_t wrap_set(std::uint64_t index) const noexcept {
    return static_cast<std::uint32_t>(index & (num_sets() - 1));
  }
  [[nodiscard]] std::uint64_t block_address(std::uint64_t addr) const noexcept {
    return addr & ~static_cast<std::uint64_t>(line_bytes - 1);
  }
  [[nodiscard]] std::uint32_t set_index(std::uint64_t addr) const noexcept {
    return wrap_set(addr >> log2_pow2(line_bytes));
  }
  [[nodiscard]] std::uint32_t line_offset(std::uint64_t addr) const noexcept {
    return static_cast<std::uint32_t>(addr & (line_bytes - 1));
  }
  [[nodiscard]] std::uint32_t words_per_line() const noexcept {
    return line_bytes / 8;
  }
};

// Paper Table 1 geometries.
[[nodiscard]] CacheGeometry l1d_geometry_default() noexcept;  // 16KB 4-way 64B
[[nodiscard]] CacheGeometry l1i_geometry_default() noexcept;  // 16KB 1-way 32B
[[nodiscard]] CacheGeometry l2_geometry_default() noexcept;   // 256KB 4-way 64B

// Faulty-way masking: which ways of a set are disabled (never allocated,
// never searched as replication sites). Two shapes:
//   - kFixed: the same ways in every set — either an explicit `fixed_mask`
//     or, when only `count` is given, the low `count` ways.
//   - kRandom: a per-set k-of-N draw seeded by (`seed`, set index), modelling
//     hard faults scattered across the array. Deterministic: the same
//     (seed, set, ways) always yields the same mask, so the draw can be
//     folded into campaign config hashes.
// Default-constructed means "no ways disabled" (enabled() == false).
struct WayDisableConfig {
  enum class Pattern : std::uint8_t { kFixed = 0, kRandom = 1 };

  std::uint32_t count = 0;       // ways disabled per set (k of N)
  std::uint32_t fixed_mask = 0;  // explicit mask; overrides count when set
  Pattern pattern = Pattern::kFixed;
  std::uint64_t seed = 0x0DDB17;  // per-set draw seed (kRandom only)

  [[nodiscard]] bool enabled() const noexcept {
    return count != 0 || fixed_mask != 0;
  }

  // Disabled-way bitmask for `set` in a cache with `ways` ways. Bit w set
  // means way w is disabled.
  [[nodiscard]] std::uint32_t mask_for_set(std::uint32_t set,
                                           std::uint32_t ways) const noexcept;

  // Throws std::invalid_argument if the config would disable every way of a
  // `ways`-way cache (at least one way must stay enabled) or names ways
  // outside the geometry.
  void validate(std::uint32_t ways) const;
};

[[nodiscard]] const char* way_pattern_name(
    WayDisableConfig::Pattern pattern) noexcept;

}  // namespace icr::mem
