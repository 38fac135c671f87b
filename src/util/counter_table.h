// Named counter tables. Each stats struct holds only std::uint64_t counters
// and lists each one once, in declaration order, as a
// `static constexpr util::CounterRow<S> kCounters[]` member. Every other list
// of counters derives from these tables (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <iterator>

namespace icr::util {

template <typename S>
struct CounterRow {
  const char* name;
  std::uint64_t S::*member;
};

// True when the rows of S::kCounters account for every byte of S, so a
// field without a row fails the static_assert beside its struct.
template <typename S>
[[nodiscard]] constexpr bool table_covers() noexcept {
  return sizeof(S) == std::size(S::kCounters) * sizeof(std::uint64_t);
}

}  // namespace icr::util
