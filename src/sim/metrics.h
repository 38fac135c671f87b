// The consolidated result of one simulation run: every metric the paper
// reports (§4.1) plus the engineering counters behind them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/baselines/rcache.h"
#include "src/core/icr_cache.h"
#include "src/cpu/branch_predictor.h"
#include "src/cpu/pipeline.h"
#include "src/energy/energy_model.h"
#include "src/fault/fault_injector.h"
#include "src/mem/set_assoc_cache.h"

namespace icr::sim {

struct RunResult {
  std::string scheme;
  std::string app;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;  // paper metric: Execution Cycles

  core::IcrStats dl1;
  mem::CacheStats l1i;
  mem::CacheStats l2;
  cpu::PipelineStats pipeline;
  cpu::BranchPredictorStats branch;
  fault::FaultStats faults;
  baselines::RCacheStats rcache;  // all-zero unless an R-Cache is attached

  energy::EnergyEvents energy_events;
  energy::EnergyBreakdown energy;  // paper metric: Energy (dL1 + L2)

  [[nodiscard]] double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

// cycles(result) / cycles(baseline) — the paper's normalized execution
// cycles (Fig. 9, 11, 12, 15-17).
[[nodiscard]] double normalized_cycles(const RunResult& result,
                                       const RunResult& baseline) noexcept;

// energy(result) / energy(baseline).
[[nodiscard]] double normalized_energy(const RunResult& result,
                                       const RunResult& baseline) noexcept;

// Arithmetic mean of a metric over per-app values.
[[nodiscard]] double mean(const std::vector<double>& values) noexcept;

// ---------------------------------------------------------------------------
// Counter-level arithmetic for snapshot-and-subtract sampling
// (src/sim/sampling.h). Every cumulative uint64 counter of a RunResult is
// visited in one fixed order: instructions, cycles, then the kCounters rows
// (src/util/counter_table.h) of dl1, l1i, l2, pipeline, branch, faults,
// rcache and energy_events, so window deltas and weighted whole-run
// reconstructions stay exact field for field.
// ---------------------------------------------------------------------------

// All counters of `r`, flattened in the canonical visit order.
[[nodiscard]] std::vector<std::uint64_t> counter_vector(const RunResult& r);

// The name of each counter_vector entry: "instructions", "cycles", then
// "<prefix>.<row>", e.g. "dl1.errors.detected", "fault.silent",
// "energy.l1_reads". All but energy.* are also registry counter names.
[[nodiscard]] std::vector<std::string> counter_names();

// `end - begin` over every counter (clamped at zero for safety; counters
// are monotone over a run). Strings are copied from `end`; the energy
// breakdown is NOT recomputed — callers holding the EnergyParams re-price
// the subtracted energy_events (see sampling.cc).
[[nodiscard]] RunResult subtract_counters(const RunResult& end,
                                          const RunResult& begin);

// Whole-run reconstruction from weighted window deltas:
//   counter[i] = round(sum_j weights[j] * counter_vector(deltas[j])[i])
// With a single delta at weight 1.0 this is the identity, which is what
// makes full-coverage sampling bit-identical to an unsampled run. Strings
// are copied from deltas.front(); requires deltas.size() == weights.size()
// and at least one delta.
[[nodiscard]] RunResult reconstruct_weighted(
    const std::vector<RunResult>& deltas, const std::vector<double>& weights);

}  // namespace icr::sim
