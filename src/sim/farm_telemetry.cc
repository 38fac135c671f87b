#include "src/sim/farm_telemetry.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "src/obs/prof_io.h"
#include "src/util/fs.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace icr::sim::farm {

using Layout = util::JsonWriter::Layout;

namespace {

[[noreturn]] void bad_telemetry(const std::string& what) {
  throw std::runtime_error("farm telemetry: " + what);
}

// The non-empty '\n'-terminated lines of `text`. A trailing line without
// its terminator (a writer killed mid-append, or one still appending on
// another host) is never returned; `*partial` says whether there was one.
std::vector<std::string> complete_lines(const std::string& text,
                                        bool* partial = nullptr) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  for (std::size_t end; (end = text.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    if (end > begin) lines.push_back(text.substr(begin, end - begin));
  }
  if (partial != nullptr) *partial = begin < text.size();
  return lines;
}

// dir/worker-<sanitized id><extension>
std::string worker_file(const std::string& dir, const std::string& worker_id,
                        const char* extension) {
  return dir + "/worker-" + sanitize_worker_id(worker_id) + extension;
}

}  // namespace

double unix_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string sanitize_worker_id(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "worker";
  return out;
}

std::string heartbeat_dir(const std::string& spool) { return spool + "/hb"; }

std::string event_log_dir(const std::string& spool) {
  return spool + "/events";
}

std::string worker_trace_dir(const std::string& spool) {
  return spool + "/prof";
}

std::string heartbeat_path(const std::string& spool,
                           const std::string& worker_id) {
  return worker_file(heartbeat_dir(spool), worker_id, ".json");
}

std::string event_log_path(const std::string& spool,
                           const std::string& worker_id) {
  return worker_file(event_log_dir(spool), worker_id, ".ndjson");
}

std::string worker_trace_path(const std::string& spool,
                              const std::string& worker_id) {
  return worker_file(worker_trace_dir(spool), worker_id, ".json");
}

RusageSnapshot capture_rusage() {
  RusageSnapshot snapshot;
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is kilobytes on Linux (bytes on macOS; close enough for a
    // fleet dashboard either way — the unit is recorded in the field name).
    snapshot.maxrss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
    snapshot.utime_seconds =
        static_cast<double>(usage.ru_utime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    snapshot.stime_seconds =
        static_cast<double>(usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  }
  return snapshot;
}

std::string WorkerHeartbeat::to_json() const {
  std::string out;
  util::JsonWriter json(out);
  json.begin_object(Layout::kBlock).key("hb").begin_object(Layout::kBlock);
  json.field("version", version).field("worker", worker_id);
  json.field("pid", pid).field("seq", seq);
  json.field("time_unix", time_unix_seconds);
  json.field("uptime_seconds", uptime_seconds);
  json.field("units_done", units_done).field("cells_done", cells_done);
  json.field("current_unit", current_unit).field("current_cell", current_cell);
  json.field("instructions_done", instructions_done);
  json.field("mips", mips).field("exited", exited);
  json.key("rusage").begin_object(Layout::kInline);
  json.field("maxrss_kb", rusage.maxrss_kb);
  json.field("utime_seconds", rusage.utime_seconds);
  json.field("stime_seconds", rusage.stime_seconds).end();
  // No zones prints as "[]", not as an empty block.
  json.key("prof").begin_array(prof_zones.empty() ? Layout::kInline
                                                  : Layout::kBlock);
  for (const obs::prof::ZoneNode& zone : prof_zones) {
    json.begin_object(Layout::kInline);
    json.field("path", zone.path).field("zone", zone.name);
    json.field("depth", zone.depth).field("count", zone.count);
    json.field("total_ns", zone.total_ns).field("self_ns", zone.self_ns);
    json.end();
  }
  json.end().end().end();
  return out;
}

WorkerHeartbeat WorkerHeartbeat::parse(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  const util::JsonValue& h = doc.get("hb");
  if (!h.is_object()) bad_telemetry("heartbeat has no \"hb\" object");
  WorkerHeartbeat hb;
  hb.version = h.get("version").as_int<int>(-1);
  if (hb.version != kTelemetryFormatVersion) {
    bad_telemetry("heartbeat version " + std::to_string(hb.version) +
                  " (this build reads version " +
                  std::to_string(kTelemetryFormatVersion) + ")");
  }
  hb.worker_id = h.get("worker").as_string();
  if (hb.worker_id.empty()) bad_telemetry("heartbeat has no worker id");
  hb.pid = h.get("pid").as_int<std::int64_t>();
  hb.seq = h.get("seq").as_int<std::uint64_t>();
  hb.time_unix_seconds = h.get("time_unix").as_double(0.0);
  hb.uptime_seconds = h.get("uptime_seconds").as_double(0.0);
  hb.units_done = h.get("units_done").as_int<std::uint32_t>();
  hb.cells_done = h.get("cells_done").as_int<std::uint64_t>();
  hb.current_unit = h.get("current_unit").as_int<std::int64_t>(-1);
  hb.current_cell = h.get("current_cell").as_int<std::int64_t>(-1);
  hb.instructions_done = h.get("instructions_done").as_int<std::uint64_t>();
  hb.mips = h.get("mips").as_double(0.0);
  hb.exited = h.get("exited").as_bool(false);
  const util::JsonValue& usage = h.get("rusage");
  hb.rusage.maxrss_kb = usage.get("maxrss_kb").as_int<std::uint64_t>();
  hb.rusage.utime_seconds = usage.get("utime_seconds").as_double(0.0);
  hb.rusage.stime_seconds = usage.get("stime_seconds").as_double(0.0);
  for (const util::JsonValue& z : h.get("prof").items()) {
    obs::prof::ZoneNode zone;
    zone.path = z.get("path").as_string();
    zone.name = z.get("zone").as_string();
    zone.depth = z.get("depth").as_int<int>();
    zone.count = z.get("count").as_int<std::uint64_t>();
    zone.total_ns = z.get("total_ns").as_int<std::uint64_t>();
    zone.self_ns = z.get("self_ns").as_int<std::uint64_t>();
    hb.prof_zones.push_back(std::move(zone));
  }
  return hb;
}

const char* to_string(FarmEventType type) noexcept {
  switch (type) {
    case FarmEventType::kWorkerStart: return "worker_start";
    case FarmEventType::kClaim: return "claim";
    case FarmEventType::kClaimConflict: return "claim_conflict";
    case FarmEventType::kPublish: return "publish";
    case FarmEventType::kStaleClear: return "stale_clear";
    case FarmEventType::kResumeSweep: return "resume_sweep";
    case FarmEventType::kExit: return "exit";
  }
  return "unknown";
}

FarmEventType event_type_by_name(const std::string& name) {
  for (const FarmEventType type :
       {FarmEventType::kWorkerStart, FarmEventType::kClaim,
        FarmEventType::kClaimConflict, FarmEventType::kPublish,
        FarmEventType::kStaleClear, FarmEventType::kResumeSweep,
        FarmEventType::kExit}) {
    if (name == to_string(type)) return type;
  }
  bad_telemetry("unknown event type \"" + name + "\"");
}

std::string FarmEvent::to_ndjson_line() const {
  std::string out;
  util::JsonWriter json(out);
  json.begin_object().field("v", kTelemetryFormatVersion);
  json.field("worker", worker_id).field("seq", seq);
  json.field("t", time_unix_seconds).field("type", to_string(type));
  json.field("unit", unit).field("cells", cells);
  json.field("dur", duration_seconds);
  if (!detail.empty()) json.field("detail", detail);
  json.end();
  return out;
}

FarmEvent FarmEvent::parse(const std::string& line) {
  const util::JsonValue doc = util::JsonValue::parse(line);
  if (!doc.is_object()) bad_telemetry("event line is not an object");
  const int version = doc.get("v").as_int<int>(-1);
  if (version != kTelemetryFormatVersion) {
    bad_telemetry("event version " + std::to_string(version));
  }
  FarmEvent event;
  event.worker_id = doc.get("worker").as_string();
  if (event.worker_id.empty()) bad_telemetry("event has no worker id");
  event.seq = doc.get("seq").as_int<std::uint64_t>();
  event.time_unix_seconds = doc.get("t").as_double(0.0);
  event.type = event_type_by_name(doc.get("type").as_string());
  event.unit = doc.get("unit").as_int<std::int64_t>(-1);
  event.cells = doc.get("cells").as_int<std::uint64_t>();
  event.duration_seconds = doc.get("dur").as_double(0.0);
  event.detail = doc.get("detail").as_string();
  return event;
}

EventLog::EventLog(const std::string& spool, const std::string& worker_id)
    : worker_id_(sanitize_worker_id(worker_id)) {
  util::fs::make_directories(event_log_dir(spool));
  path_ = event_log_path(spool, worker_id_);
  // Resume the per-worker sequence from an existing log so numbers stay
  // monotonic across process restarts (the coordinator reuses its id).
  if (!util::fs::exists(path_)) return;
  for (const std::string& line :
       complete_lines(util::fs::read_text_file(path_))) {
    try {
      next_seq_ = std::max(next_seq_, FarmEvent::parse(line).seq + 1);
    } catch (const std::exception&) {
      // Corrupt line: skip; the reader counts it, the writer just needs a
      // sequence floor.
    }
  }
}

void EventLog::append(FarmEventType type, std::int64_t unit,
                      std::uint64_t cells, double duration_seconds,
                      const std::string& detail) {
  FarmEvent event;
  event.worker_id = worker_id_;
  event.seq = next_seq_++;
  event.time_unix_seconds = unix_now_seconds();
  event.type = type;
  event.unit = unit;
  event.cells = cells;
  event.duration_seconds = duration_seconds;
  event.detail = detail;
  util::fs::append_text_file(path_, event.to_ndjson_line());
}

std::vector<FarmEvent> read_farm_events(const std::string& spool,
                                        std::size_t* dropped_lines) {
  std::vector<FarmEvent> events;
  std::size_t dropped = 0;
  const std::string dir = event_log_dir(spool);
  if (util::fs::exists(dir)) {
    for (const std::string& name : util::fs::list_directory(dir)) {
      if (name.rfind("worker-", 0) != 0) continue;
      if (name.size() < 7 || name.substr(name.size() - 7) != ".ndjson") {
        continue;
      }
      bool partial = false;
      for (const std::string& line : complete_lines(
               util::fs::read_text_file(dir + "/" + name), &partial)) {
        try {
          events.push_back(FarmEvent::parse(line));
        } catch (const std::exception&) {
          ++dropped;
        }
      }
      dropped += partial ? 1 : 0;
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FarmEvent& a, const FarmEvent& b) {
                     if (a.time_unix_seconds != b.time_unix_seconds) {
                       return a.time_unix_seconds < b.time_unix_seconds;
                     }
                     if (a.worker_id != b.worker_id) {
                       return a.worker_id < b.worker_id;
                     }
                     return a.seq < b.seq;
                   });
  if (dropped_lines != nullptr) *dropped_lines = dropped;
  return events;
}

WorkerTelemetry::WorkerTelemetry(const std::string& spool,
                                 const WorkerOptions& options)
    : spool_(spool),
      heartbeat_seconds_(options.heartbeat_seconds),
      events_(spool, options.worker_id) {
  util::fs::make_directories(heartbeat_dir(spool_));
  start_monotonic_seconds_ = monotonic_seconds();
}

void WorkerTelemetry::on_start(const Manifest& manifest) {
  instructions_per_cell_ = manifest.instructions;
  events_.append(FarmEventType::kWorkerStart, -1, manifest.total_cells);
  publish_heartbeat();  // make the worker visible before its first claim
}

void WorkerTelemetry::on_claim(const WorkUnit& unit) {
  current_unit_ = static_cast<std::int64_t>(unit.index);
  current_cell_ = -1;
  claim_monotonic_seconds_ = monotonic_seconds();
  events_.append(FarmEventType::kClaim, current_unit_, unit.cells());
}

void WorkerTelemetry::on_claim_conflict(const WorkUnit& unit) {
  events_.append(FarmEventType::kClaimConflict,
                 static_cast<std::int64_t>(unit.index), unit.cells());
}

void WorkerTelemetry::on_cell_start(const WorkUnit& unit,
                                    std::uint64_t cell_index) {
  current_unit_ = static_cast<std::int64_t>(unit.index);
  current_cell_ = static_cast<std::int64_t>(cell_index);
  // Time-based cadence only: between cells the heartbeat costs one clock
  // read unless the interval elapsed.
  if (heartbeat_due()) publish_heartbeat();
}

void WorkerTelemetry::on_unit_published(const WorkUnit& unit) {
  ++units_done_;
  cells_done_ += unit.cells();
  const double duration = monotonic_seconds() - claim_monotonic_seconds_;
  current_unit_ = -1;
  current_cell_ = -1;
  events_.append(FarmEventType::kPublish,
                 static_cast<std::int64_t>(unit.index), unit.cells(),
                 duration);
  publish_heartbeat();  // forced at every unit boundary
}

void WorkerTelemetry::on_exit(const WorkerReport& report) {
  exited_ = true;
  current_unit_ = -1;
  current_cell_ = -1;
  events_.append(FarmEventType::kExit, -1, report.cells_run, 0.0,
                 "units=" + std::to_string(report.units_run));
  publish_heartbeat();
}

bool WorkerTelemetry::heartbeat_due() const {
  if (!ever_beat_) return true;
  return monotonic_seconds() - last_beat_monotonic_seconds_ >=
         heartbeat_seconds_;
}

void WorkerTelemetry::publish_heartbeat() {
  const double now_monotonic = monotonic_seconds();
  WorkerHeartbeat hb;
  hb.worker_id = events_.worker_id();
  hb.pid = static_cast<std::int64_t>(::getpid());
  hb.seq = seq_++;
  hb.time_unix_seconds = unix_now_seconds();
  hb.uptime_seconds = now_monotonic - start_monotonic_seconds_;
  hb.units_done = units_done_;
  hb.cells_done = cells_done_;
  hb.current_unit = current_unit_;
  hb.current_cell = current_cell_;
  hb.instructions_done = cells_done_ * instructions_per_cell_;
  hb.mips = obs::simulated_mips(cells_done_, instructions_per_cell_,
                                hb.uptime_seconds);
  hb.exited = exited_;
  hb.rusage = capture_rusage();
  hb.prof_zones = obs::prof::snapshot_zones();
  util::fs::atomic_write_text_file(
      heartbeat_path(spool_, events_.worker_id()), hb.to_json());
  last_beat_monotonic_seconds_ = now_monotonic;
  ever_beat_ = true;
}

const char* to_string(WorkerState state) noexcept {
  switch (state) {
    case WorkerState::kRunning: return "running";
    case WorkerState::kStraggler: return "straggler";
    case WorkerState::kDead: return "dead";
    case WorkerState::kExited: return "exited";
  }
  return "unknown";
}

WorkerState classify_worker(const WorkerHeartbeat& heartbeat,
                            double now_unix_seconds,
                            const StalenessPolicy& policy) {
  if (heartbeat.exited) return WorkerState::kExited;
  const double age =
      std::max(0.0, now_unix_seconds - heartbeat.time_unix_seconds);
  if (age >= policy.dead_after_seconds) return WorkerState::kDead;
  if (age >= policy.straggler_after_seconds) return WorkerState::kStraggler;
  return WorkerState::kRunning;
}

FarmStatus::WorkerCounts FarmStatus::worker_counts() const noexcept {
  WorkerCounts counts;
  for (const WorkerStatus& worker : workers) {
    switch (worker.state) {
      case WorkerState::kRunning: ++counts.running; break;
      case WorkerState::kStraggler: ++counts.straggler; break;
      case WorkerState::kDead: ++counts.dead; break;
      case WorkerState::kExited: ++counts.exited; break;
    }
  }
  return counts;
}

bool FarmStatus::drained() const noexcept {
  const WorkerCounts counts = worker_counts();
  return census.complete() && counts.running == 0 && counts.straggler == 0;
}

FarmStatus collect_farm_status(const std::string& spool,
                               const Manifest& manifest,
                               const FarmStatusOptions& options) {
  FarmStatus status;
  status.census = scan_spool(spool, manifest);
  status.total_cells = manifest.total_cells;
  status.now_unix_seconds = options.now_unix_seconds != 0.0
                                ? options.now_unix_seconds
                                : unix_now_seconds();

  // Heartbeats: one file per worker, each a complete snapshot.
  const std::string hb_dir = heartbeat_dir(spool);
  if (util::fs::exists(hb_dir)) {
    for (const std::string& name : util::fs::list_directory(hb_dir)) {
      if (name.rfind("worker-", 0) != 0) continue;
      WorkerStatus worker;
      try {
        worker.heartbeat =
            WorkerHeartbeat::parse(util::fs::read_text_file(hb_dir + "/" + name));
      } catch (const std::exception&) {
        ++status.unreadable_heartbeats;
        continue;
      }
      worker.state = classify_worker(worker.heartbeat,
                                     status.now_unix_seconds,
                                     options.staleness);
      worker.age_seconds = std::max(
          0.0, status.now_unix_seconds - worker.heartbeat.time_unix_seconds);
      worker.cells_per_second =
          worker.heartbeat.uptime_seconds > 0.0
              ? static_cast<double>(worker.heartbeat.cells_done) /
                    worker.heartbeat.uptime_seconds
              : 0.0;
      status.workers.push_back(std::move(worker));
    }
  }
  std::sort(status.workers.begin(), status.workers.end(),
            [](const WorkerStatus& a, const WorkerStatus& b) {
              return a.heartbeat.worker_id < b.heartbeat.worker_id;
            });

  // Events: merged stream + per-unit latency histogram.
  std::vector<FarmEvent> events =
      read_farm_events(spool, &status.dropped_event_lines);
  status.event_count = events.size();
  double earliest = std::numeric_limits<double>::infinity();
  for (const FarmEvent& event : events) {
    earliest = std::min(earliest, event.time_unix_seconds);
    if (event.type == FarmEventType::kPublish) {
      status.unit_latency_ms.record(static_cast<std::uint64_t>(
          std::llround(std::max(0.0, event.duration_seconds) * 1000.0)));
    }
  }
  if (events.empty()) {
    // No events (telemetry off, or only heartbeats survived): fall back to
    // the oldest worker start implied by a heartbeat.
    for (const WorkerStatus& worker : status.workers) {
      earliest = std::min(earliest, worker.heartbeat.time_unix_seconds -
                                        worker.heartbeat.uptime_seconds);
    }
  }
  status.elapsed_seconds =
      std::isfinite(earliest)
          ? std::max(0.0, status.now_unix_seconds - earliest)
          : 0.0;
  status.throughput = obs::estimate_throughput(
      status.census.cells_done, status.total_cells, status.elapsed_seconds);

  // Outstanding claims: live when a non-dead, non-exited worker reports
  // being inside that unit, stale otherwise (a killed worker's footprint).
  const std::string claims_dir = spool + "/claims";
  if (util::fs::exists(claims_dir)) {
    for (const std::string& name : util::fs::list_directory(claims_dir)) {
      unsigned unit = 0;
      if (std::sscanf(name.c_str(), "unit_%u.claim", &unit) != 1) continue;
      if (claims_dir + "/" + name != claim_path(spool, unit)) continue;
      if (unit >= manifest.unit_count) continue;
      if (util::fs::exists(unit_path(spool, unit))) continue;  // published
      const bool live = std::any_of(
          status.workers.begin(), status.workers.end(),
          [unit](const WorkerStatus& worker) {
            return (worker.state == WorkerState::kRunning ||
                    worker.state == WorkerState::kStraggler) &&
                   worker.heartbeat.current_unit ==
                       static_cast<std::int64_t>(unit);
          });
      ++(live ? status.claims_live : status.claims_stale);
    }
  }
  return status;
}

namespace {

std::string format_age(double seconds) {
  // Clock skew between fleet hosts can put a heartbeat in the reader's
  // future; the classifier clamps, and so does the rendered column.
  seconds = std::max(0.0, seconds);
  char buffer[32];
  if (seconds < 120.0) {
    std::snprintf(buffer, sizeof buffer, "%.1fs", seconds);
  } else if (seconds < 7200.0) {
    std::snprintf(buffer, sizeof buffer, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.1fh", seconds / 3600.0);
  }
  return buffer;
}

std::string worker_position(const WorkerHeartbeat& hb) {
  if (hb.exited) return "exited";
  if (hb.current_unit < 0) return "idle";
  std::string out = "unit " + std::to_string(hb.current_unit);
  if (hb.current_cell >= 0) out += " cell " + std::to_string(hb.current_cell);
  return out;
}

std::string latency_bucket_label(std::uint32_t bucket) {
  using obs::Log2Histogram;
  if (bucket == 0) return "0 ms";
  const std::string lower =
      std::to_string(Log2Histogram::bucket_lower_bound(bucket));
  if (bucket == Log2Histogram::kOverflowBucket) return ">= " + lower + " ms";
  return "[" + lower + ", " +
         std::to_string(Log2Histogram::bucket_lower_bound(bucket + 1)) +
         ") ms";
}

}  // namespace

std::string render_farm_status(const FarmStatus& status) {
  const FarmStatus::WorkerCounts counts = status.worker_counts();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "units   %u/%u done, %u claim(s) outstanding (%u live, %u "
                "stale)\n",
                status.census.units_done, status.census.unit_count,
                status.census.claims_outstanding, status.claims_live,
                status.claims_stale);
  out += line;
  std::snprintf(line, sizeof line,
                "cells   %llu/%llu (%.1f%%)  %.2f cells/s  %s\n",
                static_cast<unsigned long long>(status.census.cells_done),
                static_cast<unsigned long long>(status.total_cells),
                status.throughput.percent, status.throughput.rate,
                obs::format_eta(status.throughput,
                                status.census.complete()).c_str());
  out += line;
  std::snprintf(line, sizeof line,
                "workers %zu (%zu running, %zu straggler, %zu dead, %zu "
                "exited)\n",
                status.workers.size(), counts.running, counts.straggler,
                counts.dead, counts.exited);
  out += line;
  std::snprintf(line, sizeof line, "events  %zu merged",
                status.event_count);
  out += line;
  if (status.dropped_event_lines > 0) {
    std::snprintf(line, sizeof line, ", %zu partial line(s) skipped",
                  status.dropped_event_lines);
    out += line;
  }
  if (status.unreadable_heartbeats > 0) {
    std::snprintf(line, sizeof line, ", %zu unreadable heartbeat(s)",
                  status.unreadable_heartbeats);
    out += line;
  }
  out += '\n';
  std::snprintf(line, sizeof line, "state   %s\n",
                status.drained()
                    ? "drained"
                    : (status.census.complete() ? "complete, workers still up"
                                                : "in progress"));
  out += line;

  if (!status.workers.empty()) {
    TextTable table("fleet", {"worker", "state", "last seen", "units",
                              "cells", "cells/s", "MIPS", "maxrss MB", "at"});
    for (const WorkerStatus& worker : status.workers) {
      const WorkerHeartbeat& hb = worker.heartbeat;
      table.add_row({hb.worker_id, to_string(worker.state),
                     format_age(worker.age_seconds) + " ago",
                     std::to_string(hb.units_done),
                     std::to_string(hb.cells_done),
                     format_double(worker.cells_per_second, 2),
                     format_double(hb.mips, 2),
                     format_double(static_cast<double>(hb.rusage.maxrss_kb) /
                                       1024.0, 1),
                     worker_position(hb)});
    }
    out += '\n';
    out += table.render();
  }

  if (status.unit_latency_ms.total() > 0) {
    out += "\nunit latency (claim -> publish):\n";
    for (std::uint32_t b = 0; b < obs::Log2Histogram::kBuckets; ++b) {
      const std::uint64_t count = status.unit_latency_ms.bucket(b);
      if (count == 0) continue;
      std::snprintf(line, sizeof line, "  %-20s %llu\n",
                    latency_bucket_label(b).c_str(),
                    static_cast<unsigned long long>(count));
      out += line;
    }
  }
  return out;
}

void print_farm_status(const std::string& spool, const FarmStatus& status) {
  std::printf("farm status — spool %s\n", spool.c_str());
  std::fputs(render_farm_status(status).c_str(), stdout);
  std::fflush(stdout);
}

int watch_farm_status(const std::string& spool,
                      const StatusWatchOptions& options) {
  try {
    const Manifest manifest = load_manifest(spool);
    FarmStatusOptions status_options;
    status_options.staleness = options.staleness;
    for (bool first = true;; first = false) {
      const FarmStatus status =
          collect_farm_status(spool, manifest, status_options);
      if (!options.quiet) {
        if (!first) std::printf("\n");
        print_farm_status(spool, status);
      }
      if (options.status_json == "-") {
        std::fputs(farm_status_to_ndjson(status).c_str(), stdout);
        std::fflush(stdout);
      } else if (!options.status_json.empty()) {
        util::fs::atomic_write_text_file(options.status_json,
                                         farm_status_to_ndjson(status));
      }
      if (status.drained() || options.watch_seconds <= 0.0) break;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.watch_seconds));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm status: %s\n", error.what());
    return 1;
  }
  return 0;
}

std::string farm_status_to_ndjson(const FarmStatus& status) {
  const FarmStatus::WorkerCounts counts = status.worker_counts();
  std::string out;
  util::JsonWriter json(out);
  const SpoolStatus& census = status.census;
  json.begin_object().field("type", "farm");
  json.field("schema", kStatusSchemaVersion);
  json.field("unit_count", census.unit_count);
  json.field("units_done", census.units_done);
  json.field("total_cells", status.total_cells);
  json.field("cells_done", census.cells_done);
  json.field("claims_outstanding", census.claims_outstanding);
  json.field("claims_live", status.claims_live);
  json.field("claims_stale", status.claims_stale);
  json.field("workers", status.workers.size());
  json.field("running", counts.running);
  json.field("straggler", counts.straggler).field("dead", counts.dead);
  json.field("exited", counts.exited);
  json.field("percent", util::Brief{status.throughput.percent});
  json.field("cells_per_second", util::Brief{status.throughput.rate});
  json.field("eta_seconds", util::Brief{status.throughput.eta_seconds});
  json.field("elapsed_seconds", util::Brief{status.elapsed_seconds});
  json.field("events", status.event_count);
  json.field("dropped_event_lines", status.dropped_event_lines);
  json.field("unreadable_heartbeats", status.unreadable_heartbeats);
  json.field("complete", census.complete());
  json.field("drained", status.drained()).end();
  for (const WorkerStatus& worker : status.workers) {
    const WorkerHeartbeat& hb = worker.heartbeat;
    json.begin_object().field("type", "worker");
    json.field("schema", kStatusSchemaVersion).field("worker", hb.worker_id);
    json.field("state", to_string(worker.state)).field("pid", hb.pid);
    json.field("seq", hb.seq);
    json.field("age_seconds", util::Brief{worker.age_seconds});
    json.field("units_done", hb.units_done).field("cells_done", hb.cells_done);
    json.field("current_unit", hb.current_unit);
    json.field("current_cell", hb.current_cell);
    json.field("cells_per_second", util::Brief{worker.cells_per_second});
    json.field("mips", util::Brief{hb.mips});
    json.field("maxrss_kb", hb.rusage.maxrss_kb);
    json.field("exited", hb.exited).end();
  }
  return out;
}

std::string fleet_unit_spans_trace(const std::vector<FarmEvent>& events) {
  // One tid per worker id, in sorted order, so the timeline layout is a
  // pure function of the event set.
  std::vector<std::string> workers;
  for (const FarmEvent& event : events) workers.push_back(event.worker_id);
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  const auto tid_of = [&workers](const std::string& id) {
    return static_cast<std::uint64_t>(
        std::lower_bound(workers.begin(), workers.end(), id) -
        workers.begin());
  };

  std::string out;
  util::JsonWriter json(out, /*indent=*/0);
  json.begin_array(Layout::kBlock);
  obs::prof::begin_metadata_event(json, "process_name", 0, 0);
  json.field("name", "farm fleet").end().end();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    obs::prof::begin_metadata_event(json, "thread_name", 0, i);
    json.field("name", workers[i]).end().end();
  }
  for (const FarmEvent& event : events) {
    const std::uint64_t tid = tid_of(event.worker_id);
    if (event.type == FarmEventType::kPublish) {
      // The unit span runs from claim to publish on the worker's row.
      const double start = event.time_unix_seconds - event.duration_seconds;
      json.begin_object().field("name", "unit " + std::to_string(event.unit));
      json.field("cat", "farm").field("ph", "X").field("pid", 0);
      json.field("tid", tid).field("ts", util::Micros{start * 1e6});
      json.field("dur", util::Micros{event.duration_seconds * 1e6});
      json.key("args").begin_object().field("worker", event.worker_id);
      json.field("unit", event.unit).field("cells", event.cells).end().end();
    } else if (event.type == FarmEventType::kStaleClear ||
               event.type == FarmEventType::kClaimConflict ||
               event.type == FarmEventType::kExit) {
      json.begin_object().field("name", to_string(event.type));
      json.field("cat", "farm").field("ph", "i").field("s", "t");
      json.field("pid", 0).field("tid", tid);
      json.field("ts", util::Micros{event.time_unix_seconds * 1e6});
      json.key("args").begin_object().field("worker", event.worker_id);
      json.field("unit", event.unit).end().end();
    }
  }
  json.end();
  return out;
}

std::string merge_fleet_trace(const std::string& spool) {
  std::vector<std::string> traces;
  traces.push_back(fleet_unit_spans_trace(read_farm_events(spool)));
  const std::string dir = worker_trace_dir(spool);
  if (util::fs::exists(dir)) {
    for (const std::string& name : util::fs::list_directory(dir)) {
      if (name.rfind("worker-", 0) != 0) continue;
      if (name.size() < 5 || name.substr(name.size() - 5) != ".json") {
        continue;
      }
      traces.push_back(util::fs::read_text_file(dir + "/" + name));
    }
  }
  return obs::prof::merge_chrome_traces(traces);
}

}  // namespace icr::sim::farm
