// Hierarchically named telemetry registry (observability layer, leaf
// dependency — nothing in src/obs depends on the simulator).
//
// Components register two kinds of instruments once, at wiring time:
//
//   * Counters — named *views* over component-owned `std::uint64_t` fields.
//     The hot path keeps its plain unguarded increments; the registry only
//     reads through the pointer when a snapshot is taken, so attaching a
//     registry adds zero work per simulated event. The simulator registers
//     each stats struct whole, from its kCounters table.
//   * Gauges — point-in-time values evaluated lazily at snapshot time
//     (e.g. resident replicas), allowed to be O(structure) scans.
//
// Each campaign cell owns its registry (cells share no mutable state), so
// no synchronization is needed anywhere; thread-safety for campaigns comes
// from cell isolation, exactly as for the simulators themselves.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace icr::obs {

// Power-of-two-bucketed histogram of 64-bit values:
//   bucket 0                  — value 0
//   bucket 1 + k (k in 0..31) — floor(log2(value)) == k, i.e. value in
//                               [2^k, 2^(k+1))
//   bucket 33 (overflow)      — value >= 2^32
class Log2Histogram {
 public:
  static constexpr std::uint32_t kValueBuckets = 32;
  static constexpr std::uint32_t kBuckets = kValueBuckets + 2;  // zero+overflow
  static constexpr std::uint32_t kOverflowBucket = kBuckets - 1;

  // Index of the bucket `value` falls into (see the mapping above).
  [[nodiscard]] static std::uint32_t bucket_index(std::uint64_t value) noexcept;
  // Smallest value belonging to `bucket` (0, 1, 2, 4, ..., 2^31, 2^32).
  [[nodiscard]] static std::uint64_t bucket_lower_bound(
      std::uint32_t bucket) noexcept;

  void record(std::uint64_t value) noexcept {
    ++buckets_[bucket_index(value)];
    ++total_;
  }

  [[nodiscard]] std::uint64_t bucket(std::uint32_t index) const noexcept {
    return buckets_[index];
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  // Element-wise sum; merging campaign-cell histograms into one.
  void merge(const Log2Histogram& other) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
};

class StatRegistry {
 public:
  using GaugeFn = std::function<std::uint64_t()>;

  // Registers a named view over a component-owned counter. `source` must
  // stay valid for as long as snapshots are taken. Names are hierarchical
  // by convention ("dl1.replication.successes"); registration order is the
  // export order.
  void register_counter(std::string name, const std::uint64_t* source);

  // Registers every row of `stats`'s counter table (S::kCounters, see
  // src/util/counter_table.h) as "<prefix>.<row name>", in table order.
  // `stats` must stay valid for as long as snapshots are taken.
  template <typename S>
  void register_counters(std::string_view prefix, const S& stats) {
    for (const auto& row : S::kCounters) {
      register_counter(std::string(prefix) + '.' + row.name,
                       &(stats.*row.member));
    }
  }

  // Registers a gauge evaluated at each snapshot.
  void register_gauge(std::string name, GaugeFn fn);

  [[nodiscard]] const std::vector<std::string>& counter_names() const noexcept {
    return counter_names_;
  }
  [[nodiscard]] const std::vector<std::string>& gauge_names() const noexcept {
    return gauge_names_;
  }

  // Current counter values in registration order.
  [[nodiscard]] std::vector<std::uint64_t> snapshot_counters() const;
  // Current gauge values in registration order.
  [[nodiscard]] std::vector<std::uint64_t> snapshot_gauges() const;

  // Value of one counter by name; 0 when the name is unknown.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

 private:
  std::vector<std::string> counter_names_;
  std::vector<const std::uint64_t*> counter_sources_;
  std::vector<std::string> gauge_names_;
  std::vector<GaugeFn> gauge_fns_;
};

}  // namespace icr::obs
