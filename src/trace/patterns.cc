#include "src/trace/patterns.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"

namespace icr::trace {

SequentialStream::SequentialStream(std::uint64_t base,
                                   std::uint64_t region_bytes,
                                   std::uint32_t stride_bytes) noexcept
    : base_(base & ~std::uint64_t{7}),
      region_(region_bytes),
      stride_(stride_bytes) {}

std::uint64_t SequentialStream::next(Rng& rng) {
  (void)rng;
  const std::uint64_t addr = base_ + offset_;
  const std::uint64_t next = offset_ + stride_;
  offset_ = next < region_ ? next : next % region_;
  return addr & ~std::uint64_t{7};
}

ZipfBlocks::ZipfBlocks(std::uint64_t base, std::uint64_t region_bytes,
                       double theta)
    : base_(base & ~std::uint64_t{7}),
      sampler_(std::max<std::uint64_t>(1, region_bytes / 64), theta) {
  // A fixed pseudo-random rank->block shuffle keeps hot blocks spread over
  // the cache sets instead of clustered at the region start.
  shuffle_.resize(static_cast<std::size_t>(sampler_.universe()));
  std::iota(shuffle_.begin(), shuffle_.end(), 0U);
  Rng shuffler(base ^ 0x5EEDF00DULL);
  for (std::size_t i = shuffle_.size(); i > 1; --i) {
    std::swap(shuffle_[i - 1],
              shuffle_[static_cast<std::size_t>(shuffler.next_below(i))]);
  }
}

std::uint64_t ZipfBlocks::next(Rng& rng) {
  const std::uint64_t rank = sampler_.sample(rng);
  const std::uint64_t block = shuffle_[static_cast<std::size_t>(rank)];
  const std::uint64_t word = rng.next_below(8);
  return base_ + block * 64 + word * 8;
}

PointerChase::PointerChase(std::uint64_t base, std::uint64_t region_bytes,
                           std::uint32_t node_bytes, Rng& rng)
    : base_(base & ~std::uint64_t{7}), node_bytes_(node_bytes) {
  const std::uint32_t nodes =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(
          2, region_bytes / std::max<std::uint32_t>(8, node_bytes)));
  // Build one Hamiltonian cycle via Sattolo's algorithm: every node is
  // visited before the walk repeats, defeating any cache smaller than the
  // region.
  std::vector<std::uint32_t> order(nodes);
  std::iota(order.begin(), order.end(), 0U);
  for (std::size_t i = nodes; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.next_below(i - 1))]);
  }
  successor_.resize(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    successor_[order[i]] = order[(i + 1) % nodes];
  }
  current_ = order[0];
}

std::uint64_t PointerChase::next(Rng& rng) {
  (void)rng;
  const std::uint64_t addr =
      base_ + static_cast<std::uint64_t>(current_) * node_bytes_;
  current_ = successor_[current_];
  return addr & ~std::uint64_t{7};
}

void MixturePattern::add(double weight,
                         std::unique_ptr<AddressPattern> pattern) {
  ICR_CHECK(weight > 0.0);
  const double prev = cumulative_.empty() ? 0.0 : cumulative_.back();
  cumulative_.push_back(prev + weight);
  patterns_.push_back(std::move(pattern));

  // The draw u = m * 2^-53 * total is monotone in m, and lower_bound picks
  // the number of cumulative weights below u, so bounds_[i] is the first m
  // whose u exceeds cumulative_[i].
  const double total = cumulative_.back();
  bounds_.resize(cumulative_.size());
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t{1} << 53;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(mid) * 0x1.0p-53 * total > cumulative_[i]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    bounds_[i] = lo;
  }
}

std::uint64_t MixturePattern::next(Rng& rng) {
  ICR_CHECK(!patterns_.empty());
  const std::uint64_t m = rng.next_u53();
  std::size_t k = 0;
  for (const std::uint64_t bound : bounds_) k += m >= bound ? 1 : 0;
  last_ = std::min(k, patterns_.size() - 1);
  return patterns_[last_]->next(rng);
}

}  // namespace icr::trace
