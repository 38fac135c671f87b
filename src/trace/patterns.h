// Address-stream building blocks for the synthetic workloads.
//
// Each SPEC2000-like application model (workloads.h) composes these into a
// weighted mixture: a streaming compressor is mostly SequentialStream plus a
// hot Zipf dictionary; mcf is dominated by PointerChase over a region far
// larger than the 16KB dL1; and so on. All patterns emit 8-byte-aligned
// word addresses and are deterministic given the Rng stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace icr::trace {

class AddressPattern {
 public:
  virtual ~AddressPattern() = default;
  // The next word address of this reference stream.
  virtual std::uint64_t next(Rng& rng) = 0;
};

// Linear walk through [base, base+region) in `stride`-byte steps, wrapping.
class SequentialStream final : public AddressPattern {
 public:
  SequentialStream(std::uint64_t base, std::uint64_t region_bytes,
                   std::uint32_t stride_bytes = 8) noexcept;
  std::uint64_t next(Rng& rng) override;

 private:
  std::uint64_t base_;
  std::uint64_t region_;
  std::uint32_t stride_;
  std::uint64_t offset_ = 0;
};

// Zipf-skewed references over the 64-byte blocks of a region; the word
// within the chosen block is uniform. Models hot data structures.
class ZipfBlocks final : public AddressPattern {
 public:
  ZipfBlocks(std::uint64_t base, std::uint64_t region_bytes, double theta);
  std::uint64_t next(Rng& rng) override;

 private:
  std::uint64_t base_;
  ZipfSampler sampler_;
  std::vector<std::uint32_t> shuffle_;  // rank -> block (avoids rank==layout)
};

// Walks a random permutation cycle over fixed-size nodes: the address of
// reference i+1 is determined by the node visited at reference i, exactly a
// linked-list traversal. Combined with a register dependence in the
// workload layer this produces serialized, latency-bound loads (mcf).
class PointerChase final : public AddressPattern {
 public:
  PointerChase(std::uint64_t base, std::uint64_t region_bytes,
               std::uint32_t node_bytes, Rng& rng);
  std::uint64_t next(Rng& rng) override;

 private:
  std::uint64_t base_;
  std::uint32_t node_bytes_;
  std::vector<std::uint32_t> successor_;  // one random cycle
  std::uint32_t current_ = 0;
};

// A weighted mixture of patterns; each reference first picks a component.
class MixturePattern final : public AddressPattern {
 public:
  void add(double weight, std::unique_ptr<AddressPattern> pattern);
  std::uint64_t next(Rng& rng) override;

  [[nodiscard]] std::size_t components() const noexcept {
    return patterns_.size();
  }
  // Index of the component that produced the most recent address.
  [[nodiscard]] std::size_t last_component() const noexcept { return last_; }

 private:
  std::vector<double> cumulative_;
  // next() picks component k for a draw m (Rng::next_u53) iff exactly k of
  // these bounds are <= m: the std::lower_bound over cumulative_ of the
  // scaled draw, found once per bound by bisection.
  std::vector<std::uint64_t> bounds_;
  std::vector<std::unique_ptr<AddressPattern>> patterns_;
  std::size_t last_ = 0;
};

}  // namespace icr::trace
