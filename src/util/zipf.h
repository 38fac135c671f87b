// Zipf-distributed sampling over a fixed universe of items.
//
// Workload generators use Zipf skew to model "hot" data: the small set of
// blocks in high demand that ICR automatically replicates (paper §5.2). The
// sampler precomputes the CDF once and answers each draw with a short
// binary search inside one bucket of a guide table, so large universes stay
// cheap.
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace icr {

class ZipfSampler {
 public:
  // Distribution over {0, ..., n-1} with P(k) proportional to 1/(k+1)^theta.
  // theta == 0 degenerates to uniform. Requires n >= 1.
  ZipfSampler(std::uint64_t n, double theta);

  [[nodiscard]] std::uint64_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::uint64_t universe() const noexcept { return n_; }
  [[nodiscard]] double theta() const noexcept { return theta_; }

  // The precomputed CDF over ranks 0..n-1; cdf().back() is exactly 1.0.
  // Exposed read-only so regression tests can pin the normalization.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept {
    return cdf_;
  }

 private:
  std::uint64_t n_;
  double theta_;
  std::vector<double> cdf_;
  // guide_[k]: the rank std::lower_bound gives for k / (guide_.size() - 1).
  std::vector<std::uint32_t> guide_;
};

}  // namespace icr
