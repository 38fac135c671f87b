// Interval telemetry: periodic snapshots of a StatRegistry.
//
// The sampler records one cumulative snapshot (all counters, all gauges,
// and optionally a per-set occupancy row for heatmaps) every N committed
// instructions; per-interval deltas are computed at export time, so phase
// curves — replication ability, miss rate, IPC per interval — fall out of
// any existing run without touching the aggregate metrics. Snapshot cost is
// O(registered instruments) at a 100k-instruction default cadence; the
// instrumented hot paths themselves are untouched (counters are views).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/stat_registry.h"

namespace icr::obs {

// The recorded time series of one run. Sample 0 is the baseline taken when
// observability was enabled (normally all-zero, before the first
// instruction); interval k spans samples k..k+1.
struct IntervalSeries {
  std::uint64_t interval_instructions = 0;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::uint32_t occupancy_sets = 0;  // 0 = no occupancy rows recorded

  struct Sample {
    std::uint64_t instructions = 0;  // cumulative committed instructions
    std::uint64_t cycles = 0;        // cumulative cycles
    std::vector<std::uint64_t> counters;   // cumulative, registry order
    std::vector<std::uint64_t> gauges;     // point-in-time, registry order
    std::vector<std::uint32_t> occupancy;  // replicas per set (optional)
  };
  std::vector<Sample> samples;

  [[nodiscard]] std::size_t interval_count() const noexcept {
    return samples.empty() ? 0 : samples.size() - 1;
  }
};

class IntervalSampler {
 public:
  // `registry` must outlive the sampler. Instrument *names* are captured at
  // record_baseline() time, so call it after every component has registered.
  IntervalSampler(const StatRegistry& registry,
                  std::uint64_t interval_instructions);

  // Optional occupancy probe for heatmaps: returns the per-set replica
  // count, evaluated at every sample.
  void set_occupancy_probe(std::function<std::vector<std::uint32_t>()> probe);

  // Records sample 0 and captures the registry's instrument names.
  void record_baseline(std::uint64_t instructions, std::uint64_t cycles);

  // Records one cumulative snapshot at the given progress point. Sampling
  // the same instruction count twice (a chunk boundary on the final
  // instruction of the previous segment) replaces the last sample instead
  // of emitting a zero-length interval.
  void sample(std::uint64_t instructions, std::uint64_t cycles);

  [[nodiscard]] std::uint64_t interval_instructions() const noexcept {
    return series_.interval_instructions;
  }
  [[nodiscard]] const IntervalSeries& series() const noexcept {
    return series_;
  }

 private:
  const StatRegistry& registry_;
  std::function<std::vector<std::uint32_t>()> occupancy_probe_;
  IntervalSeries series_;
};

// Default sampling cadence (instructions per interval).
inline constexpr std::uint64_t kDefaultStatsInterval = 100000;

}  // namespace icr::obs
