// Host-side profiler for the simulator itself.
//
// Where src/obs instruments the *simulated* cache hierarchy, this profiles
// the *simulating* process: RAII scoped zones record where the wall time of
// a run goes (campaign cells, run chunks, fast-forward, export), so "make
// it faster" PRs know which stage to attack first. Zones sit only on
// coarse paths — an 80-cell campaign grid records a few hundred zones — so
// per-cycle and per-access costs come from the perfbench layer ladder
// (`--trace 1`) and from a `-pg` build with gprof instead
// (docs/PROFILING.md).
//
// Design, sized to that traffic:
//   * Always compiled, runtime-toggleable. When no capture is active every
//     zone costs one relaxed atomic load and a predictable branch.
//   * One process-wide recorder behind one mutex: a zone takes the lock
//     when it opens and when it closes. Each thread keeps only its tid and
//     its stack of open zones.
//   * Deterministic table. Zones aggregate into one tree keyed by zone
//     *path* (strings, not pointers) with children sorted by name, so the
//     zone table is independent of thread scheduling. Timings vary run to
//     run; structure does not.
//
// Every zone both aggregates (call count, total and self time) and records
// a span into one bounded ring, which becomes a slice in the Chrome trace.
//
// Threading contract: begin_capture()/end_capture() must be called while no
// zone is live (CampaignRunner joins its threads before returning, so tool
// code is naturally safe); a zone left open across them is not recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
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

// The ring keeps the most recent spans of a capture and counts the
// overwritten ones as dropped.
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;

// Starts a capture: resets the tree and the ring, stamps the epoch, and
// sets the flag that makes zones record. Restarting an active capture is
// allowed and simply begins a fresh one.
void begin_capture();

// One aggregated zone (a unique path through the zone nesting).
struct ZoneNode {
  std::string path;  // "Campaign::cell/Simulator::run/Pipeline::run"
  std::string name;  // last path component
  int depth = 0;     // 0 for root zones
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // inclusive wall time
  std::uint64_t self_ns = 0;   // total minus instrumented children
};

// Zone aggregation tree, children keyed (and so ordered) by name. The
// recorder builds one per capture; parse_chrome_trace folds the tables of
// several captures into one.
struct ZoneTree {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;  // inclusive time of instrumented children
  std::map<std::string, ZoneTree> children;

  // Depth-first, children by name: a parent always precedes its children.
  // self_ns = total_ns minus instrumented children.
  [[nodiscard]] std::vector<ZoneNode> flatten() const;
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

// Snapshot of one finished capture.
struct Profile {
  // ZoneTree::flatten() order, which is schedule-independent.
  std::vector<ZoneNode> zones;
  std::vector<SpanEvent> events;  // grouped by tid, oldest first within
  std::uint64_t wall_ns = 0;      // begin_capture .. end_capture
  std::uint64_t dropped_events = 0;
  std::uint32_t threads = 0;

  // Sum of every zone's self time == sum of root totals. On a single
  // recording thread this is <= wall_ns; with N threads it can reach
  // N * wall_ns.
  [[nodiscard]] std::uint64_t total_self_ns() const noexcept;

  [[nodiscard]] const ZoneNode* find(const std::string& path) const noexcept;
};

// Stops the capture (zones go inert again) and returns its zone table and
// retained spans.
[[nodiscard]] Profile end_capture();

// RAII zone. Construct via the ICR_PROF_ZONE* macros; the object is inert
// (one load + branch) unless a capture is active.
class ScopedZone {
 public:
  explicit ScopedZone(const char* name) noexcept {
    if (capturing()) begin(name, nullptr);
  }
  // Zone with a dynamic label (campaign cells), copied only while
  // recording.
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
