#include "src/obs/stat_registry.h"

#include <bit>

namespace icr::obs {

std::uint32_t Log2Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value == 0) return 0;
  const std::uint32_t log2 =
      static_cast<std::uint32_t>(std::bit_width(value)) - 1;
  if (log2 >= kValueBuckets) return kOverflowBucket;
  return 1 + log2;
}

std::uint64_t Log2Histogram::bucket_lower_bound(std::uint32_t bucket) noexcept {
  if (bucket == 0) return 0;
  if (bucket >= kOverflowBucket) return std::uint64_t{1} << kValueBuckets;
  return std::uint64_t{1} << (bucket - 1);
}

void Log2Histogram::merge(const Log2Histogram& other) noexcept {
  for (std::uint32_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  total_ += other.total_;
}

void StatRegistry::register_counter(std::string name,
                                    const std::uint64_t* source) {
  counter_names_.push_back(std::move(name));
  counter_sources_.push_back(source);
}

void StatRegistry::register_gauge(std::string name, GaugeFn fn) {
  gauge_names_.push_back(std::move(name));
  gauge_fns_.push_back(std::move(fn));
}

std::vector<std::uint64_t> StatRegistry::snapshot_counters() const {
  std::vector<std::uint64_t> values;
  values.reserve(counter_sources_.size());
  for (const std::uint64_t* source : counter_sources_) {
    values.push_back(*source);
  }
  return values;
}

std::vector<std::uint64_t> StatRegistry::snapshot_gauges() const {
  std::vector<std::uint64_t> values;
  values.reserve(gauge_fns_.size());
  for (const GaugeFn& fn : gauge_fns_) values.push_back(fn());
  return values;
}

std::uint64_t StatRegistry::counter_value(std::string_view name) const {
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return *counter_sources_[i];
  }
  return 0;
}

}  // namespace icr::obs
