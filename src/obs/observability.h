// Bundle of the per-run observability objects and their configuration.
//
// Each simulated cell (one variant x app x trial run) owns its registry,
// sampler, and trace outright — no shared mutable state, so campaign threads
// never contend and determinism is untouched. When everything in ObsOptions
// is off (the default) nothing is allocated and the simulator behaves
// exactly as before.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/event_trace.h"
#include "src/obs/interval_sampler.h"
#include "src/obs/stat_registry.h"

namespace icr::obs {

struct ObsOptions {
  // Instructions per telemetry interval; 0 disables interval sampling.
  std::uint64_t stats_interval = 0;
  // Bitmask of EventCategory bits to trace; 0 disables event tracing.
  std::uint32_t trace_categories = 0;

  [[nodiscard]] bool any() const noexcept {
    return stats_interval != 0 || trace_categories != 0;
  }
};

// Live observability state wired into a running simulator. The registry is
// always present once observability is enabled; sampler/trace exist only
// when their option is on.
struct Observability {
  StatRegistry registry;
  std::unique_ptr<IntervalSampler> sampler;
  std::unique_ptr<EventTrace> trace;
};

// Plain-data extract of a finished run: safe to move across threads and to
// keep after the simulator (and the component stats the registry viewed)
// is gone.
struct CellObservability {
  IntervalSeries intervals;
  std::vector<TraceEvent> events;
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
};

}  // namespace icr::obs
