// Wires one complete system — workload, OoO core, ICR dL1, hierarchy,
// fault injector, energy model — and runs it. This is the library's main
// entry point; see examples/quickstart.cpp.
#pragma once

#include <memory>

#include "src/baselines/rcache.h"
#include "src/core/icr_cache.h"
#include "src/core/scheme.h"
#include "src/cpu/pipeline.h"
#include "src/fault/fault_injector.h"
#include "src/mem/memory_hierarchy.h"
#include "src/obs/observability.h"
#include "src/rel/rel_tracker.h"
#include "src/sim/config.h"
#include "src/sim/metrics.h"
#include "src/trace/workloads.h"

namespace icr::sim {

class Simulator {
 public:
  Simulator(SimConfig config, core::Scheme scheme,
            trace::WorkloadProfile profile);

  // Same system, driven by an arbitrary instruction source instead of a
  // synthetic generator — the replay path for recorded traces. `app_name`
  // labels results (RunResult::app). Replaying a trace recorded from a
  // generator through this constructor is bit-identical to driving the
  // generator directly: both run the exact same stream through the exact
  // same wiring.
  Simulator(SimConfig config, core::Scheme scheme,
            std::unique_ptr<trace::TraceSource> source,
            std::string app_name);

  // Runs `instructions` more instructions and returns cumulative results.
  RunResult run(std::uint64_t instructions);

  // Advances `instructions` more instructions functionally (caches,
  // predictor, decay/fault/scrub state live; no detailed OoO modelling) —
  // the fast-forward leg of warmup/interval sampling (src/sim/sampling.h).
  void fast_forward(std::uint64_t instructions);

  [[nodiscard]] core::IcrCache& dl1() noexcept { return *dl1_; }
  [[nodiscard]] mem::MemoryHierarchy& hierarchy() noexcept {
    return *hierarchy_;
  }
  [[nodiscard]] cpu::Pipeline& pipeline() noexcept { return *pipeline_; }
  [[nodiscard]] fault::FaultInjector* injector() noexcept {
    return injector_.get();
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  // Snapshot of all metrics without running further.
  [[nodiscard]] RunResult result() const;

  // Turns on interval telemetry and/or event tracing. Call before the first
  // run(): the baseline sample is recorded here. No-op when `options` asks
  // for nothing. Enabling observability never changes simulated behaviour —
  // run() merely executes in sampling-interval chunks, which is
  // bit-identical to one uninterrupted run (guarded by tier-1 test).
  void enable_observability(const obs::ObsOptions& options);

  // Plain-data copy of the recorded telemetry (series + retained events),
  // safe to keep after this simulator is destroyed.
  [[nodiscard]] obs::CellObservability collect_observability() const;

  // Turns on the analytical reliability tracker (src/rel). Call before the
  // first run(). Like observability, it never changes simulated behaviour
  // (bit-identical results, guarded by tier-1 test). No-op when
  // options.enabled is false.
  void enable_rel(const rel::RelOptions& options);

  // Live tracker; null until enable_rel.
  [[nodiscard]] rel::RelTracker* rel() noexcept { return rel_.get(); }

  // Snapshot of the analytical integrals up to the current cycle. Empty
  // report when the tracker was never enabled.
  [[nodiscard]] rel::RelReport collect_rel() const;

 private:
  // The one chunk loop behind run() (detailed) and fast_forward(): with
  // interval telemetry on, advances in sampling-interval chunks against
  // absolute committed-instruction targets, sampling after each.
  void advance(std::uint64_t instructions, bool detailed);

  SimConfig config_;
  core::Scheme scheme_;
  std::unique_ptr<trace::TraceSource> source_;
  std::unique_ptr<mem::MemoryHierarchy> hierarchy_;
  std::unique_ptr<core::IcrCache> dl1_;
  std::unique_ptr<baselines::RCache> rcache_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<cpu::Pipeline> pipeline_;
  std::string app_name_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<rel::RelTracker> rel_;
};

}  // namespace icr::sim
