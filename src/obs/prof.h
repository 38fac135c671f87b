// Host-side profiler for the simulator itself.
//
// Where src/obs instruments the *simulated* cache hierarchy, this profiles
// the *simulating* process: RAII scoped zones record where the wall time of
// a run goes (campaign cells, run chunks, fast-forward, export), so "make
// it faster" PRs know which stage to attack first. Zones sit only on
// coarse paths: a zone costs a few tens of nanoseconds while a capture is
// live, more than a cache access or a SEC-DED check, so per-cycle and
// per-access costs come from the perfbench layer ladder (`--trace 1`) and
// from a `-pg` build with gprof instead (docs/PROFILING.md).
//
// Design constraints, in order:
//   * Always compiled, runtime-toggleable. When no capture is active every
//     zone costs one relaxed atomic load and a predictable branch.
//   * Per-thread, lock-free recording. Each thread owns its buffer; the
//     global registry mutex is taken only on first use of a thread per
//     capture. Campaign workers therefore never contend.
//   * Deterministic merge. end_capture() folds all per-thread aggregation
//     trees into one tree keyed by zone *path* (strings, not pointers) with
//     children sorted by name, so the merged zone table is independent of
//     thread scheduling. Timings vary run to run; structure does not.
//
// Every zone both aggregates (call count, total and self time) and records
// a span into a bounded per-thread ring, which becomes a slice in the
// Chrome trace.
//
// Threading contract: begin_capture()/end_capture() must be called while no
// zone is live and no worker thread is still recording (CampaignRunner joins
// its pool before returning, so tool code is naturally safe).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace icr::obs::prof {

namespace internal {
extern std::atomic<bool> g_capturing;
}  // namespace internal

// True between begin_capture() and end_capture().
[[nodiscard]] inline bool capturing() noexcept {
  return internal::g_capturing.load(std::memory_order_relaxed);
}

struct CaptureOptions {
  // Ring capacity of each thread's trace-event buffer; the ring keeps the
  // most recent events and counts the overwritten ones as dropped.
  std::size_t events_per_thread = std::size_t{1} << 16;
};

// Starts a capture: resets all buffers, stamps the epoch, and sets the
// flag that makes zones record. Restarting an active capture is allowed
// and simply begins a fresh one.
void begin_capture(const CaptureOptions& options = {});

// One aggregated zone (a unique path through the zone nesting).
struct ZoneNode {
  std::string path;  // "Campaign::cell/Simulator::run/Pipeline::run"
  std::string name;  // last path component
  int depth = 0;     // 0 for root zones
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // inclusive wall time
  std::uint64_t self_ns = 0;   // total minus instrumented children
};

// One retained trace event.
struct SpanEvent {
  std::string name;
  std::string label;  // dynamic detail ("BaseP/mcf/0"); empty for most
  std::uint64_t start_ns = 0;  // since capture epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // per-capture thread index
  std::uint16_t depth = 0;
};

// Merged snapshot of one finished capture.
struct Profile {
  // Depth-first over the merged tree, children in name order: a parent
  // always precedes its children, and the order is schedule-independent.
  std::vector<ZoneNode> zones;
  std::vector<SpanEvent> events;  // grouped by tid, chronological within
  std::uint64_t wall_ns = 0;      // begin_capture .. end_capture
  std::uint64_t dropped_events = 0;
  std::uint32_t threads = 0;

  // Sum of every zone's self time == sum of root totals. On a single
  // recording thread this is <= wall_ns; with N threads it can reach
  // N * wall_ns.
  [[nodiscard]] std::uint64_t total_self_ns() const noexcept;

  [[nodiscard]] const ZoneNode* find(const std::string& path) const noexcept;
};

// Stops the capture (zones go inert again) and merges all thread buffers.
[[nodiscard]] Profile end_capture();

// Non-destructive merged zone table of the capture in progress — the same
// deterministic name-sorted merge end_capture() performs, without stopping
// the capture or touching the event rings. Empty when no capture is active.
// Same threading contract as end_capture(): call while no zone is live on
// the calling thread and no other thread is recording (the farm worker
// heartbeat calls it between cells on its single worker thread).
[[nodiscard]] std::vector<ZoneNode> snapshot_zones();

// RAII zone. Construct via the ICR_PROF_ZONE* macros; the object is inert
// (one load + branch) unless a capture is active.
class ScopedZone {
 public:
  explicit ScopedZone(const char* name) noexcept {
    if (capturing()) begin(name, nullptr);
  }
  // Zone with a dynamic label (campaign cells). The label is only
  // evaluated into the per-thread pool while recording.
  ScopedZone(const char* name, const std::string& label) noexcept {
    if (capturing()) begin(name, &label);
  }
  ~ScopedZone() {
    if (armed_) end();
  }
  ScopedZone(const ScopedZone&) = delete;
  ScopedZone& operator=(const ScopedZone&) = delete;

 private:
  void begin(const char* name, const std::string* label) noexcept;
  void end() noexcept;

  bool armed_ = false;
  int node_ = 0;
  std::uint32_t label_idx_ = 0;  // 0 = none, else pool index + 1
  std::uint64_t start_ns_ = 0;
};

#define ICR_PROF_CAT2(a, b) a##b
#define ICR_PROF_CAT(a, b) ICR_PROF_CAT2(a, b)

// Zone: aggregated + retained as a trace slice.
#define ICR_PROF_ZONE(name) \
  ::icr::obs::prof::ScopedZone ICR_PROF_CAT(icr_prof_zone_, __LINE__)(name)

// Zone with a dynamic label; label_expr is evaluated only while a capture
// is live.
#define ICR_PROF_ZONE_LABELED(name, label_expr)                         \
  ::icr::obs::prof::ScopedZone ICR_PROF_CAT(icr_prof_zone_, __LINE__)(  \
      name, ::icr::obs::prof::capturing() ? (label_expr) : std::string())

}  // namespace icr::obs::prof
