// Fleet telemetry for the campaign farm: the spool directory itself is the
// observability substrate.
//
// src/sim/farm.h makes the spool the *work* substrate; this layer makes it
// the *status* substrate too: any process — the coordinator, an external
// fleet manager, or `run_campaign --farm-status` after a crash — can
// reconstruct fleet state from files alone, with no IPC and no surviving
// coordinator. Three file families, all outside the unit/claim
// directories the aggregator reads, so telemetry can never perturb the
// byte-identical export guarantee (guarded by tier-1 test):
//
//   spool/
//     hb/worker-<id>.json         # latest heartbeat, atomic-rename publish
//     events/worker-<id>.ndjson   # append-only lifecycle event stream
//     prof/worker-<id>.json       # optional per-worker Chrome trace
//
//   * Heartbeats are whole-state snapshots (progress, current unit/cell,
//     wall/MIPS, rusage, merged host-profiler zone totals) republished via
//     util::fs::atomic_write_text_file — a reader sees the previous or the
//     next heartbeat, never a torn one. Writes are amortized: forced at
//     unit boundaries, time-based cadence only between cells, nothing on
//     the per-instruction hot path.
//   * Event logs are per-worker NDJSON streams of typed lifecycle events
//     (claim, publish, claim-conflict, stale-clear, resume-sweep, exit)
//     with per-worker monotonic sequence numbers; one write(2) per line, so
//     a SIGKILL can truncate at most the final line (readers skip partial
//     lines). read_farm_events() merges all workers' streams
//     deterministically — the merge is a pure function of file contents.
//   * farm_status is the read side: census + heartbeat staleness
//     classification (running / straggler / dead against configurable
//     thresholds) + per-unit latency histogram (obs::Log2Histogram over
//     claim→publish wall time) + fleet throughput/ETA
//     (obs::estimate_throughput). Rendered as a table, NDJSON for
//     scripting, or merged with per-worker --prof captures into one
//     Perfetto-loadable fleet timeline (merge_fleet_trace).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/prof.h"
#include "src/obs/stat_registry.h"
#include "src/obs/throughput.h"
#include "src/sim/farm.h"

namespace icr::sim::farm {

// Bumped when the heartbeat/event schema changes incompatibly.
inline constexpr int kTelemetryFormatVersion = 1;

// Monotonic version of the --status-json NDJSON records (docs/CAMPAIGN.md
// "Status schema"). Every record carries it as "schema" so downstream
// parsers can detect format changes; records without the field are
// implicitly version 1 (the pre-schema producer).
//   1 — PR 7: farm + worker records, no schema field.
//   2 — PR 9: explicit "schema" field on every record.
inline constexpr int kStatusSchemaVersion = 2;

// Wall clock in unix seconds: heartbeats, events and fleet-trace epochs.
[[nodiscard]] double unix_now_seconds();
// Steady clock in seconds, for ages and rates within one process.
[[nodiscard]] double monotonic_seconds();

// Worker ids become file names; anything outside [A-Za-z0-9._-] maps to '_'
// (empty ids become "worker").
[[nodiscard]] std::string sanitize_worker_id(const std::string& id);

// Telemetry paths inside a spool.
[[nodiscard]] std::string heartbeat_dir(const std::string& spool);
[[nodiscard]] std::string event_log_dir(const std::string& spool);
[[nodiscard]] std::string worker_trace_dir(const std::string& spool);
[[nodiscard]] std::string heartbeat_path(const std::string& spool,
                                         const std::string& worker_id);
[[nodiscard]] std::string event_log_path(const std::string& spool,
                                         const std::string& worker_id);
[[nodiscard]] std::string worker_trace_path(const std::string& spool,
                                            const std::string& worker_id);

// getrusage(RUSAGE_SELF) extract carried in heartbeats.
struct RusageSnapshot {
  std::uint64_t maxrss_kb = 0;
  double utime_seconds = 0.0;
  double stime_seconds = 0.0;
};
[[nodiscard]] RusageSnapshot capture_rusage();

// One whole-state worker snapshot. Every publication replaces the previous
// file atomically; `seq` increases by one per publication so readers can
// order observations without trusting the wall clock.
struct WorkerHeartbeat {
  int version = kTelemetryFormatVersion;
  std::string worker_id;
  std::int64_t pid = 0;
  std::uint64_t seq = 0;
  double time_unix_seconds = 0.0;  // wall clock at publication
  double uptime_seconds = 0.0;     // since worker start (steady clock)
  std::uint32_t units_done = 0;
  std::uint64_t cells_done = 0;
  std::int64_t current_unit = -1;   // -1 = between units
  std::int64_t current_cell = -1;   // grid cell index in flight, -1 = none
  std::uint64_t instructions_done = 0;
  double mips = 0.0;  // simulated MIPS over the worker's lifetime
  bool exited = false;
  RusageSnapshot rusage;
  // Merged host-profiler zone totals (obs::prof::snapshot_zones); empty
  // when the worker runs without --prof.
  std::vector<obs::prof::ZoneNode> prof_zones;

  [[nodiscard]] std::string to_json() const;
  // Throws std::runtime_error on malformed input or version mismatch.
  [[nodiscard]] static WorkerHeartbeat parse(const std::string& text);
};

// Typed lifecycle events. Workers emit the first five; the coordinator
// emits stale-clear / resume-sweep under the id "coordinator".
enum class FarmEventType {
  kWorkerStart,
  kClaim,
  kClaimConflict,
  kPublish,
  kStaleClear,
  kResumeSweep,
  kExit,
};
[[nodiscard]] const char* to_string(FarmEventType type) noexcept;
// Throws std::runtime_error on an unknown name.
[[nodiscard]] FarmEventType event_type_by_name(const std::string& name);

struct FarmEvent {
  std::string worker_id;
  std::uint64_t seq = 0;  // per-worker monotonic
  double time_unix_seconds = 0.0;
  FarmEventType type = FarmEventType::kWorkerStart;
  std::int64_t unit = -1;            // -1 = not unit-scoped
  std::uint64_t cells = 0;           // cells in the unit (publish) or count
  double duration_seconds = 0.0;     // claim→publish wall (publish)
  std::string detail;

  [[nodiscard]] std::string to_ndjson_line() const;  // includes the '\n'
  // Throws std::runtime_error on malformed input or version mismatch.
  [[nodiscard]] static FarmEvent parse(const std::string& line);
};

// Append-only per-worker event stream. On construction the writer resumes
// the sequence from an existing log (a resumed coordinator keeps its
// numbers monotonic); each append is one write(2) of one NDJSON line.
class EventLog {
 public:
  EventLog(const std::string& spool, const std::string& worker_id);

  void append(FarmEventType type, std::int64_t unit = -1,
              std::uint64_t cells = 0, double duration_seconds = 0.0,
              const std::string& detail = {});

  [[nodiscard]] const std::string& worker_id() const noexcept {
    return worker_id_;
  }
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

 private:
  std::string path_;
  std::string worker_id_;
  std::uint64_t next_seq_ = 0;
};

// All workers' event streams merged deterministically: ordered by
// (timestamp, worker id, sequence) so the result is a pure function of the
// file contents, independent of directory enumeration or reader. Partial
// trailing lines (a SIGKILL mid-append) are skipped, counted in
// `*dropped_lines` when given.
[[nodiscard]] std::vector<FarmEvent> read_farm_events(
    const std::string& spool, std::size_t* dropped_lines = nullptr);

// The worker-side publisher run_worker_loop drives, under the worker id
// (sanitized; empty -> "worker") and heartbeat cadence of `options`. All
// writes go through the atomic/append helpers above; nothing here touches
// the unit records, the claims, or the campaign config hash.
class WorkerTelemetry {
 public:
  WorkerTelemetry(const std::string& spool, const WorkerOptions& options);

  // Hooks, in run_worker_loop order.
  void on_start(const Manifest& manifest);
  void on_claim(const WorkUnit& unit);
  void on_claim_conflict(const WorkUnit& unit);
  void on_cell_start(const WorkUnit& unit, std::uint64_t cell_index);
  void on_unit_published(const WorkUnit& unit);
  void on_exit(const WorkerReport& report);

 private:
  [[nodiscard]] bool heartbeat_due() const;
  // Builds the current snapshot and atomically publishes it.
  void publish_heartbeat();

  std::string spool_;
  double heartbeat_seconds_;
  EventLog events_;
  std::uint64_t instructions_per_cell_ = 0;
  std::uint64_t seq_ = 0;
  std::uint32_t units_done_ = 0;
  std::uint64_t cells_done_ = 0;
  std::int64_t current_unit_ = -1;
  std::int64_t current_cell_ = -1;
  bool exited_ = false;
  double start_monotonic_seconds_ = 0.0;
  double claim_monotonic_seconds_ = 0.0;  // of the unit in flight
  double last_beat_monotonic_seconds_ = 0.0;
  bool ever_beat_ = false;
};

// ---- The read side: farm_status ----------------------------------------

enum class WorkerState { kRunning, kStraggler, kDead, kExited };
[[nodiscard]] const char* to_string(WorkerState state) noexcept;

// Pure classification (tested at the exact boundaries): exited beats age;
// age >= dead_after is dead, age >= straggler_after is a straggler,
// younger is running. Negative ages (clock skew) count as zero.
[[nodiscard]] WorkerState classify_worker(const WorkerHeartbeat& heartbeat,
                                          double now_unix_seconds,
                                          const StalenessPolicy& policy);

struct WorkerStatus {
  WorkerHeartbeat heartbeat;
  WorkerState state = WorkerState::kRunning;
  double age_seconds = 0.0;        // now - heartbeat publication
  double cells_per_second = 0.0;   // lifetime rate
};

struct FarmStatusOptions {
  StalenessPolicy staleness;
  // Evaluation instant; 0 = current wall clock. Tests pin it for
  // deterministic classification.
  double now_unix_seconds = 0.0;
};

struct FarmStatus {
  SpoolStatus census;
  std::uint64_t total_cells = 0;
  // Outstanding claims split by whether a non-dead worker says it is
  // currently inside that unit.
  std::uint32_t claims_live = 0;
  std::uint32_t claims_stale = 0;
  std::vector<WorkerStatus> workers;  // sorted by worker id
  std::size_t event_count = 0;
  std::size_t dropped_event_lines = 0;
  std::size_t unreadable_heartbeats = 0;
  obs::Log2Histogram unit_latency_ms;  // claim→publish, from publish events
  double now_unix_seconds = 0.0;
  double elapsed_seconds = 0.0;  // since the earliest recorded event
  obs::Throughput throughput;    // fleet cells/sec + ETA over elapsed

  // Workers per staleness class; every renderer counts through this.
  struct WorkerCounts {
    std::size_t running = 0, straggler = 0, dead = 0, exited = 0;
  };
  [[nodiscard]] WorkerCounts worker_counts() const noexcept;

  // Grid complete and no worker still running or straggling.
  [[nodiscard]] bool drained() const noexcept;
};

// Reconstructs fleet state from files alone: census, heartbeats classified
// against the staleness policy, merged events, per-unit latency histogram,
// throughput and ETA.
[[nodiscard]] FarmStatus collect_farm_status(
    const std::string& spool, const Manifest& manifest,
    const FarmStatusOptions& options = {});

// Human-readable fleet table (census, per-worker rows, latency histogram).
[[nodiscard]] std::string render_farm_status(const FarmStatus& status);

// Prints the "farm status — spool DIR" heading and the fleet table to
// stdout: the one-shot view of `icr_report --farm SPOOL` and
// `run_campaign --farm-status`.
void print_farm_status(const std::string& spool, const FarmStatus& status);

// The longest --watch period: std::this_thread::sleep_for waits on the
// steady clock, and a longer period overflows its conversion.
inline constexpr double kMaxWatchSeconds =
    std::chrono::duration<double>(std::chrono::steady_clock::duration::max())
        .count();

// The `run_campaign --farm-status=DIR` flags.
struct StatusWatchOptions {
  StalenessPolicy staleness;
  double watch_seconds = 0.0;  // refresh period; 0 = render once
  std::string status_json;     // NDJSON out ("-" = stdout)
  bool quiet = false;
};

// Renders the fleet state of `spool` from its files alone: once, or every
// watch_seconds until the fleet is drained. Returns the process exit
// status: 0, or 1 after printing the error.
int watch_farm_status(const std::string& spool,
                      const StatusWatchOptions& options);

// NDJSON for scripting: one {"type":"farm",...} summary line, then one
// {"type":"worker",...} line per worker. Every record carries
// "schema": kStatusSchemaVersion.
[[nodiscard]] std::string farm_status_to_ndjson(const FarmStatus& status);

// ---- Fleet-wide Chrome trace merge --------------------------------------

// Coordinator-synthesized fleet timeline: every publish event becomes a
// complete ("ph":"X") span from claim to publish under pid 0 ("farm
// fleet"), one tid per worker, timestamps in absolute unix microseconds —
// the same clock per-worker --prof captures are exported on, so the two
// merge into one aligned timeline.
[[nodiscard]] std::string fleet_unit_spans_trace(
    const std::vector<FarmEvent>& events);

// The synthesized spans plus every worker capture under spool/prof/,
// spliced into one Perfetto-loadable document
// (obs::prof::merge_chrome_traces).
[[nodiscard]] std::string merge_fleet_trace(const std::string& spool);

}  // namespace icr::sim::farm
