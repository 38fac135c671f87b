// The traced run's layer ladder, measured outside-in from the benchmark's
// own code: nothing here adds a span inside src/.
//
//   trace   TimedSource wraps the cell's TraceSource in situ and times
//           batched next() calls.
//   core    each cell's load/store stream, regenerated from the same
//           source, replayed in program order into a fresh IcrCache.
//   mem     MemoryHierarchy::fetch_block over that replay's miss stream.
//   coding  secded_encode / secded_decode / byte_parity over the cell's
//           store values.
//   fault   FaultInjector::tick over the replay's warmed cache.
//   cpu     whatever simulation host time the rungs above do not explain.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/scheme.h"
#include "src/sim/config.h"
#include "src/trace/instruction.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Hands out the wrapped source's records unchanged. Records are pulled in
// batches so the clock is read once per batch, not once per record; the
// stream the simulator sees is the same, only read a little ahead.
class TimedSource final : public icr::trace::TraceSource {
 public:
  explicit TimedSource(std::unique_ptr<icr::trace::TraceSource> inner)
      : inner_(std::move(inner)) {}

  icr::trace::Instruction next() override {
    if (pos_ == batch_.size()) refill();
    ++handed_out_;
    return batch_[pos_++];
  }

  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::uint64_t pulled() const noexcept { return pulled_; }
  [[nodiscard]] std::uint64_t handed_out() const noexcept {
    return handed_out_;
  }

 private:
  void refill();

  std::unique_ptr<icr::trace::TraceSource> inner_;
  std::array<icr::trace::Instruction, 256> batch_{};
  std::size_t pos_ = batch_.size();
  double seconds_ = 0.0;
  std::uint64_t pulled_ = 0;
  std::uint64_t handed_out_ = 0;
};

// One dL1 access of a cell, in program order.
struct MemOp {
  std::uint64_t addr = 0;
  std::uint64_t value = 0;  // stores
  std::uint64_t cycle = 0;  // instruction index scaled by the cell's CPI
  bool store = false;
};

// The loads and stores among the first `instructions` records of `source`,
// stamped with cycles spread at `cycles / instructions` per instruction.
[[nodiscard]] std::vector<MemOp> capture_mem_ops(icr::trace::TraceSource& source,
                                                 std::uint64_t instructions,
                                                 std::uint64_t cycles);

// Host cost of one cell's replay through each rung below the pipeline.
struct ReplayCost {
  std::uint64_t loads = 0;   // replayed IcrCache::load calls
  std::uint64_t stores = 0;  // replayed IcrCache::store calls
  // The replay's total time, split between loads and stores in proportion
  // to their individually timed calls.
  double load_s = 0.0;
  double store_s = 0.0;
  std::uint64_t fetches = 0;  // replay misses fed to fetch_block
  double fetch_s = 0.0;
  std::uint64_t coding_ops = 0;  // per primitive
  double encode_s = 0.0;
  double decode_s = 0.0;
  double parity_s = 0.0;
  std::uint64_t ticks = 0;
  double tick_s = 0.0;

  ReplayCost& operator+=(const ReplayCost& other);
};

// Replays `ops` into a fresh dL1 built from `config` and `scheme`, then
// times the lower rungs on what the replay produced. `seed` seeds the
// FaultInjector whose tick cost is measured.
[[nodiscard]] ReplayCost replay_cell(const icr::sim::SimConfig& config,
                                     const icr::core::Scheme& scheme,
                                     const std::vector<MemOp>& ops,
                                     std::uint64_t seed);

}  // namespace perfbench
