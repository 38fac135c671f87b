#include "src/util/rng.h"

#include <cmath>

namespace icr {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed ^ 0xA5A5A5A5A5A5A5A5ULL;  // avoid all-zero state
  for (auto& word : state_) word = split_mix64(s);
}

std::uint64_t Rng::next_below_retry(__uint128_t m,
                                    std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless bounded sampling, slow half.
  const std::uint64_t threshold = (0 - bound) % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>(next_u64()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::next_range(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + next_below(hi - lo + 1);
}

Bernoulli::Bernoulli(double p) noexcept {
  if (p <= 0.0 || p >= 1.0) {
    draws_ = false;
    always_ = p >= 1.0;
  } else if (p > 0.0) {
    threshold_ = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
  }
  // NaN: draws, never true (next_double() < NaN is false).
}

Rng Rng::fork() noexcept {
  return Rng(next_u64());
}

}  // namespace icr
