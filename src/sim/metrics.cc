#include "src/sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/util/check.h"

namespace icr::sim {
namespace {

// Applies `f(prefix, name, counter)` to every cumulative uint64 counter of
// a RunResult, in the canonical order: the two top-level counters (empty
// prefix), then each stats struct's util::CounterRow table. Template over R
// so const and mutable results share the one walk.
template <typename R, typename F>
void visit_counters(R&& r, F&& f) {
  f("", "instructions", r.instructions);
  f("", "cycles", r.cycles);
  const auto table = [&f](const char* prefix, auto& stats) {
    for (const auto& row : std::remove_cvref_t<decltype(stats)>::kCounters) {
      f(prefix, row.name, stats.*row.member);
    }
  };
  table("dl1", r.dl1);
  table("l1i", r.l1i);
  table("l2", r.l2);
  table("pipeline", r.pipeline);
  table("branch", r.branch);
  table("fault", r.faults);
  table("rcache", r.rcache);
  table("energy", r.energy_events);
}

}  // namespace

double normalized_cycles(const RunResult& result,
                         const RunResult& baseline) noexcept {
  return baseline.cycles == 0 ? 0.0
                              : static_cast<double>(result.cycles) /
                                    static_cast<double>(baseline.cycles);
}

double normalized_energy(const RunResult& result,
                         const RunResult& baseline) noexcept {
  const double base = baseline.energy.total_nj();
  return base == 0.0 ? 0.0 : result.energy.total_nj() / base;
}

double mean(const std::vector<double>& values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<std::uint64_t> counter_vector(const RunResult& r) {
  std::vector<std::uint64_t> out;
  visit_counters(r, [&](auto, auto, std::uint64_t v) { out.push_back(v); });
  return out;
}

std::vector<std::string> counter_names() {
  std::vector<std::string> out;
  visit_counters(RunResult{}, [&](std::string prefix, const char* name, auto) {
    out.push_back(prefix.empty() ? name : prefix + '.' + name);
  });
  return out;
}

RunResult subtract_counters(const RunResult& end, const RunResult& begin) {
  RunResult out = end;
  const std::vector<std::uint64_t> base = counter_vector(begin);
  std::size_t i = 0;
  visit_counters(out, [&](auto, auto, std::uint64_t& v) {
    v -= std::min(v, base[i++]);
  });
  return out;
}

RunResult reconstruct_weighted(const std::vector<RunResult>& deltas,
                               const std::vector<double>& weights) {
  ICR_CHECK(!deltas.empty());
  ICR_CHECK(deltas.size() == weights.size());
  std::vector<double> acc(counter_vector(deltas.front()).size(), 0.0);
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    std::size_t i = 0;
    visit_counters(deltas[j], [&](auto, auto, std::uint64_t v) {
      acc[i++] += weights[j] * static_cast<double>(v);
    });
  }
  RunResult out = deltas.front();
  std::size_t i = 0;
  visit_counters(out, [&](auto, auto, std::uint64_t& v) {
    const double x = acc[i++];
    v = x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
  });
  return out;
}

}  // namespace icr::sim
