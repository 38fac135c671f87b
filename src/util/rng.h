// Deterministic pseudo-random number generation for simulations.
//
// All stochastic behaviour in the library (workload generation, fault
// injection, tie-breaking) flows through Rng so that every experiment is
// exactly reproducible from its seed. The generator is xoshiro256**, seeded
// via SplitMix64, which is both fast and statistically strong enough for
// simulation workloads.
#pragma once

#include <cstdint>

namespace icr {

// SplitMix64 step; used for seeding and as a cheap stateless hash.
[[nodiscard]] inline std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Stateless 64-bit mix of a value (finalizer of SplitMix64). Useful for
// deriving deterministic "data" from an address.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t state = value;
  return split_mix64(state);
}

// xoshiro256** PRNG. Copyable value type; cheap to fork for sub-streams.
class Rng {
 public:
  // Seeds the four state words from `seed` via SplitMix64. A zero seed is
  // remapped internally so the state is never all-zero.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  // Uniform in [0, 2^64). Inline, like next_double/bernoulli: these sit on
  // the per-instruction generator and per-cycle fault-injection paths.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0. Uses Lemire's method.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    const __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) return next_below_retry(m, bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t next_range(std::uint64_t lo,
                                         std::uint64_t hi) noexcept;

  // Uniform in [0, 2^53): the integer behind next_double().
  [[nodiscard]] std::uint64_t next_u53() noexcept { return next_u64() >> 11; }

  // Uniform double in [0, 1): next_u53() * 2^-53.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u53()) * 0x1.0p-53;
  }

  // True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  // A new generator whose stream is decorrelated from this one.
  [[nodiscard]] Rng fork() noexcept;

 private:
  // next_below() once the first product's low half fell below `bound`:
  // rejects while it is below 2^64 mod bound.
  [[nodiscard]] std::uint64_t next_below_retry(__uint128_t m,
                                               std::uint64_t bound) noexcept;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

// Rng::bernoulli(p) for a p fixed in advance: the same draws and results,
// decided by an integer comparison. bernoulli() draws m = next_u53() and
// tests m * 2^-53 < p; both sides are exact, so the test is m < ceil(p *
// 2^53). Outside (0, 1) it draws nothing, as bernoulli() does.
class Bernoulli {
 public:
  explicit Bernoulli(double p) noexcept;

  [[nodiscard]] bool operator()(Rng& rng) const noexcept {
    if (!draws_) return always_;
    return rng.next_u53() < threshold_;
  }

 private:
  std::uint64_t threshold_ = 0;
  bool draws_ = true;
  bool always_ = false;
};

}  // namespace icr
