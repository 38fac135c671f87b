#include "src/util/zipf.h"

#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace icr {

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: empty universe");
  cdf_.reserve(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_.push_back(acc);
  }
  for (auto& v : cdf_) v /= acc;

  // Guide table: a power-of-two number of equal-width buckets of [0, 1),
  // about one per rank, each remembering where its left edge falls in the
  // CDF. Bucket edges are exact doubles, so for a draw u in bucket k the
  // answer lies between the ranks of edges k and k + 1.
  std::size_t buckets = 1;
  while (buckets < cdf_.size() && buckets < (std::size_t{1} << 16)) {
    buckets *= 2;
  }
  guide_.resize(buckets + 1);
  std::size_t rank = 0;  // std::lower_bound of each edge, edges ascending
  for (std::size_t k = 0; k <= buckets; ++k) {
    const double edge =
        static_cast<double>(k) / static_cast<double>(buckets);
    while (rank < cdf_.size() && cdf_[rank] < edge) ++rank;
    guide_[k] = static_cast<std::uint32_t>(rank);
  }
}

std::uint64_t ZipfSampler::sample(Rng& rng) const noexcept {
  // std::lower_bound of u, narrowed by the guide table to the ranks of one
  // bucket (u * buckets is exact, so the bucket is too), then searched
  // without data-dependent branches: the draw is random, so a branchy
  // search would mispredict at most levels.
  const double u = rng.next_double();
  const auto k = static_cast<std::size_t>(
      u * static_cast<double>(guide_.size() - 1));
  const double* base = cdf_.data() + guide_[k];
  std::size_t len = guide_[k + 1] - guide_[k];
  if (len == 0) return guide_[k];
  while (len > 1) {
    const std::size_t half = len / 2;
    base = base[half] < u ? base + half : base;
    len -= half;
  }
  return static_cast<std::uint64_t>(base - cdf_.data()) + (*base < u ? 1 : 0);
}

}  // namespace icr
