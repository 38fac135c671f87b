#include "src/sim/serve.h"

#include <limits>
#include <optional>
#include <stdexcept>

#include "src/obs/exposition.h"
#include "src/obs/throughput.h"
#include "src/sim/cli.h"
#include "src/util/json.h"

namespace icr::sim::farm {
namespace {

// /events idle re-poll cadence while waiting for new events.
constexpr double kEventsPollSeconds = 0.5;

// The farm metric families (docs/SERVING.md). Everything is a gauge of the
// spool's current state except the event/latency tallies, which only grow.
std::string farm_metrics(const FarmStatus& status) {
  obs::MetricsText out;
  out.family("icr_farm_units_total", "work units in the manifest", "gauge");
  out.sample("icr_farm_units_total", {},
             static_cast<std::uint64_t>(status.census.unit_count));
  out.family("icr_farm_units_done", "published work units", "gauge");
  out.sample("icr_farm_units_done", {},
             static_cast<std::uint64_t>(status.census.units_done));
  out.family("icr_farm_cells_total", "campaign grid cells in the manifest",
             "gauge");
  out.sample("icr_farm_cells_total", {}, status.total_cells);
  out.family("icr_farm_cells_done", "grid cells published to the spool",
             "gauge");
  out.sample("icr_farm_cells_done", {}, status.census.cells_done);
  out.family("icr_farm_claims", "outstanding unit claims by liveness",
             "gauge");
  out.sample("icr_farm_claims", {{"state", "live"}},
             static_cast<std::uint64_t>(status.claims_live));
  out.sample("icr_farm_claims", {{"state", "stale"}},
             static_cast<std::uint64_t>(status.claims_stale));

  const FarmStatus::WorkerCounts counts = status.worker_counts();
  out.family("icr_farm_workers", "workers with a heartbeat, by state",
             "gauge");
  out.sample("icr_farm_workers", {{"state", "running"}},
             std::uint64_t{counts.running});
  out.sample("icr_farm_workers", {{"state", "straggler"}},
             std::uint64_t{counts.straggler});
  out.sample("icr_farm_workers", {{"state", "dead"}},
             std::uint64_t{counts.dead});
  out.sample("icr_farm_workers", {{"state", "exited"}},
             std::uint64_t{counts.exited});

  out.family("icr_farm_progress_percent", "cells done as a percentage",
             "gauge");
  out.sample("icr_farm_progress_percent", {}, status.throughput.percent);
  out.family("icr_farm_cells_per_second", "fleet throughput", "gauge");
  out.sample("icr_farm_cells_per_second", {}, status.throughput.rate);
  out.family("icr_farm_eta_seconds",
             "estimated seconds to completion (-1 when unknown)", "gauge");
  out.sample("icr_farm_eta_seconds", {}, status.throughput.eta_seconds);
  out.family("icr_farm_elapsed_seconds", "seconds since the earliest event",
             "gauge");
  out.sample("icr_farm_elapsed_seconds", {}, status.elapsed_seconds);
  out.family("icr_farm_complete", "1 once every unit is published", "gauge");
  out.sample("icr_farm_complete", {},
             std::uint64_t{status.census.complete() ? 1u : 0u});
  out.family("icr_farm_drained",
             "1 once complete and no worker is running or straggling",
             "gauge");
  out.sample("icr_farm_drained", {}, std::uint64_t{status.drained() ? 1u : 0u});
  out.family("icr_farm_events_merged", "lifecycle events across all workers",
             "counter");
  out.sample("icr_farm_events_merged", {},
             static_cast<std::uint64_t>(status.event_count));
  out.family("icr_farm_dropped_event_lines",
             "partial NDJSON lines skipped by the merge", "counter");
  out.sample("icr_farm_dropped_event_lines", {},
             static_cast<std::uint64_t>(status.dropped_event_lines));
  out.family("icr_farm_unreadable_heartbeats",
             "heartbeat files that failed to parse", "gauge");
  out.sample("icr_farm_unreadable_heartbeats", {},
             static_cast<std::uint64_t>(status.unreadable_heartbeats));
  out.family("icr_farm_status_schema", "NDJSON status schema version",
             "gauge");
  out.sample("icr_farm_status_schema", {},
             std::uint64_t{kStatusSchemaVersion});

  for (const WorkerStatus& worker : status.workers) {
    const WorkerHeartbeat& hb = worker.heartbeat;
    const obs::PromLabels wl = {{"worker", hb.worker_id}};
    out.family("icr_worker_up", "1 while the worker is classified running",
               "gauge");
    out.sample("icr_worker_up", wl,
               std::uint64_t{worker.state == WorkerState::kRunning ? 1u : 0u});
    out.family("icr_worker_state",
               "worker staleness class (0 running, 1 straggler, 2 dead, "
               "3 exited)",
               "gauge");
    out.sample("icr_worker_state", wl,
               static_cast<std::uint64_t>(static_cast<int>(worker.state)));
    out.family("icr_worker_heartbeat_age_seconds",
               "seconds since the last heartbeat", "gauge");
    out.sample("icr_worker_heartbeat_age_seconds", wl, worker.age_seconds);
    out.family("icr_worker_units_done", "units published by this worker",
               "gauge");
    out.sample("icr_worker_units_done", wl,
               static_cast<std::uint64_t>(hb.units_done));
    out.family("icr_worker_cells_done", "cells simulated by this worker",
               "gauge");
    out.sample("icr_worker_cells_done", wl, hb.cells_done);
    out.family("icr_worker_cells_per_second", "worker lifetime cell rate",
               "gauge");
    out.sample("icr_worker_cells_per_second", wl, worker.cells_per_second);
    out.family("icr_worker_mips", "worker simulated MIPS", "gauge");
    out.sample("icr_worker_mips", wl, hb.mips);
    out.family("icr_worker_maxrss_kilobytes", "worker peak resident set",
               "gauge");
    out.sample("icr_worker_maxrss_kilobytes", wl, hb.rusage.maxrss_kb);
    out.family("icr_worker_cpu_seconds_total", "worker CPU time by mode",
               "counter");
    {
      obs::PromLabels ml = wl;
      ml.emplace_back("mode", "user");
      out.sample("icr_worker_cpu_seconds_total", ml, hb.rusage.utime_seconds);
      ml.back().second = "system";
      out.sample("icr_worker_cpu_seconds_total", ml, hb.rusage.stime_seconds);
    }
    if (!hb.prof_zones.empty()) {
      obs::append_prof_zones(out, hb.prof_zones, "icr_worker_prof_zone", wl);
    }
  }

  if (status.unit_latency_ms.total() > 0) {
    out.histogram("icr_farm_unit_latency_milliseconds",
                  "claim to publish wall time per unit",
                  status.unit_latency_ms);
  }
  return out.text();
}

}  // namespace

SpoolStatusSource::SpoolStatusSource(std::string spool, Manifest manifest,
                                     StalenessPolicy staleness)
    : spool_(std::move(spool)),
      manifest_(std::move(manifest)),
      options_{staleness} {}

FarmStatus SpoolStatusSource::collect() const {
  return collect_farm_status(spool_, manifest_, options_);
}

std::string SpoolStatusSource::status_ndjson() {
  return farm_status_to_ndjson(collect());
}

std::string SpoolStatusSource::metrics_text() {
  return farm_metrics(collect());
}

std::vector<std::string> SpoolStatusSource::event_lines() {
  std::vector<std::string> lines;
  for (const FarmEvent& event : read_farm_events(spool_)) {
    std::string line = event.to_ndjson_line();
    if (!line.empty() && line.back() == '\n') line.pop_back();
    lines.push_back(std::move(line));
  }
  return lines;
}

bool SpoolStatusSource::finished() { return collect().drained(); }

CampaignStatusSource::CampaignStatusSource(std::uint64_t total_cells,
                                           std::uint64_t instructions_per_cell)
    : total_cells_(total_cells),
      instructions_per_cell_(instructions_per_cell),
      start_monotonic_seconds_(monotonic_seconds()) {}

std::string CampaignStatusSource::status_ndjson() {
  const std::uint64_t done = cells_done_.load();
  const double elapsed = monotonic_seconds() - start_monotonic_seconds_;
  const obs::Throughput t =
      obs::estimate_throughput(done, total_cells_, elapsed);
  std::string out;
  util::JsonWriter json(out);
  json.begin_object().field("type", "campaign");
  json.field("schema", kStatusSchemaVersion);
  json.field("total_cells", total_cells_).field("cells_done", done);
  json.field("percent", util::Brief{t.percent});
  json.field("cells_per_second", util::Brief{t.rate});
  json.field("eta_seconds", util::Brief{t.eta_seconds});
  json.field("elapsed_seconds", util::Brief{elapsed});
  json.field("mips", util::Brief{obs::simulated_mips(
                         done, instructions_per_cell_, elapsed)});
  json.field("finished", finished_.load()).end();
  return out;
}

std::string CampaignStatusSource::metrics_text() {
  const std::uint64_t done = cells_done_.load();
  const double elapsed = monotonic_seconds() - start_monotonic_seconds_;
  const obs::Throughput t =
      obs::estimate_throughput(done, total_cells_, elapsed);
  obs::MetricsText out;
  out.family("icr_campaign_cells_total", "grid cells in the campaign",
             "gauge");
  out.sample("icr_campaign_cells_total", {}, total_cells_);
  out.family("icr_campaign_cells_done", "grid cells completed", "gauge");
  out.sample("icr_campaign_cells_done", {}, done);
  out.family("icr_campaign_progress_percent", "cells done as a percentage",
             "gauge");
  out.sample("icr_campaign_progress_percent", {}, t.percent);
  out.family("icr_campaign_cells_per_second", "campaign throughput", "gauge");
  out.sample("icr_campaign_cells_per_second", {}, t.rate);
  out.family("icr_campaign_eta_seconds",
             "estimated seconds to completion (-1 when unknown)", "gauge");
  out.sample("icr_campaign_eta_seconds", {}, t.eta_seconds);
  out.family("icr_campaign_elapsed_seconds", "seconds since campaign start",
             "gauge");
  out.sample("icr_campaign_elapsed_seconds", {}, elapsed);
  out.family("icr_campaign_mips", "fleet simulated MIPS", "gauge");
  out.sample("icr_campaign_mips", {},
             obs::simulated_mips(done, instructions_per_cell_, elapsed));
  out.family("icr_campaign_finished", "1 once the run has completed",
             "gauge");
  out.sample("icr_campaign_finished", {},
             std::uint64_t{finished_.load() ? 1u : 0u});
  out.family("icr_farm_status_schema", "NDJSON status schema version",
             "gauge");
  out.sample("icr_farm_status_schema", {},
             std::uint64_t{kStatusSchemaVersion});
  return out.text();
}

SimStatusSource::SimStatusSource(std::string scheme, std::string app,
                                 std::uint64_t total_instructions)
    : scheme_(std::move(scheme)),
      app_(std::move(app)),
      total_instructions_(total_instructions),
      start_monotonic_seconds_(monotonic_seconds()) {}

void SimStatusSource::update(
    std::uint64_t instructions_done,
    std::vector<std::pair<std::string, std::uint64_t>> counters,
    std::vector<obs::prof::ZoneNode> zones) {
  std::lock_guard<std::mutex> lock(mutex_);
  instructions_done_ = instructions_done;
  if (!counters.empty()) counters_ = std::move(counters);
  if (!zones.empty()) zones_ = std::move(zones);
}

void SimStatusSource::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_ = true;
}

bool SimStatusSource::finished() {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::string SimStatusSource::status_ndjson() {
  std::lock_guard<std::mutex> lock(mutex_);
  const double elapsed = monotonic_seconds() - start_monotonic_seconds_;
  const obs::Throughput t = obs::estimate_throughput(
      instructions_done_, total_instructions_, elapsed);
  std::string out;
  util::JsonWriter json(out);
  json.begin_object().field("type", "sim");
  json.field("schema", kStatusSchemaVersion);
  json.field("scheme", scheme_).field("app", app_);
  json.field("instructions_total", total_instructions_);
  json.field("instructions_done", instructions_done_);
  json.field("percent", util::Brief{t.percent});
  json.field("mips", util::Brief{obs::simulated_mips(instructions_done_, 1,
                                                     elapsed)});
  json.field("eta_seconds", util::Brief{t.eta_seconds});
  json.field("elapsed_seconds", util::Brief{elapsed});
  json.field("finished", finished_).end();
  return out;
}

std::string SimStatusSource::metrics_text() {
  std::lock_guard<std::mutex> lock(mutex_);
  const double elapsed = monotonic_seconds() - start_monotonic_seconds_;
  const obs::Throughput t = obs::estimate_throughput(
      instructions_done_, total_instructions_, elapsed);
  obs::MetricsText out;
  const obs::PromLabels labels = {{"scheme", scheme_}, {"app", app_}};
  out.family("icr_sim_instructions_total", "commit target", "gauge");
  out.sample("icr_sim_instructions_total", labels, total_instructions_);
  out.family("icr_sim_instructions_done", "instructions committed", "gauge");
  out.sample("icr_sim_instructions_done", labels, instructions_done_);
  out.family("icr_sim_progress_percent", "instructions as a percentage",
             "gauge");
  out.sample("icr_sim_progress_percent", labels, t.percent);
  out.family("icr_sim_mips", "simulated MIPS", "gauge");
  out.sample("icr_sim_mips", labels,
             obs::simulated_mips(instructions_done_, 1, elapsed));
  out.family("icr_sim_eta_seconds",
             "estimated seconds to completion (-1 when unknown)", "gauge");
  out.sample("icr_sim_eta_seconds", labels, t.eta_seconds);
  out.family("icr_sim_elapsed_seconds", "seconds since run start", "gauge");
  out.sample("icr_sim_elapsed_seconds", labels, elapsed);
  out.family("icr_sim_finished", "1 once the run has completed", "gauge");
  out.sample("icr_sim_finished", labels,
             std::uint64_t{finished_ ? 1u : 0u});
  for (const auto& [name, value] : counters_) {
    const std::string metric = "icr_stat_" + obs::prom_sanitize_name(name);
    out.family(metric, "stat-registry counter " + name, "counter");
    out.sample(metric, labels, value);
  }
  obs::append_prof_zones(out, zones_, "icr_prof_zone", labels);
  return out.text();
}

void parse_serve_spec(const std::string& spec, ServeOptions* options) {
  std::string port_text = spec;
  auto colon = spec.rfind(':');
  if (colon != std::string::npos) {
    options->bind_address = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
    if (options->bind_address.empty()) {
      throw std::runtime_error("--serve: empty bind address in '" + spec + "'");
    }
  }
  const std::optional<std::uint64_t> port = cli::parse_u64(port_text);
  if (!port || *port > 65535) {
    throw std::runtime_error("--serve: bad port in '" + spec +
                             "' (expected PORT or ADDR:PORT)");
  }
  options->port = static_cast<std::uint16_t>(*port);
}

std::unique_ptr<obs::http::Server> start_status_server(
    StatusSource& source, const std::string& serve_spec) {
  ServeOptions options;
  parse_serve_spec(serve_spec, &options);
  auto server = std::make_unique<obs::http::Server>();
  StatusSource* src = &source;
  server->handle("/healthz", [](const obs::http::Request&) {
    return obs::http::Response{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server->handle("/status", [src](const obs::http::Request&) {
    return obs::http::Response{200, "application/x-ndjson; charset=utf-8",
                               src->status_ndjson()};
  });
  server->handle("/metrics", [src](const obs::http::Request&) {
    return obs::http::Response{
        200, "text/plain; version=0.0.4; charset=utf-8",
        src->metrics_text()};
  });
  server->handle("/", [](const obs::http::Request&) {
    return obs::http::Response{200, "text/html; charset=utf-8",
                               obs::dashboard_html()};
  });
  server->handle_stream(
      "/events",
      [src](const obs::http::Request& request,
                          obs::http::ClientStream& stream) {
        // Resume semantics (docs/SERVING.md): the id of each frame is its
        // index in the merged (time, worker, seq) stream; Last-Event-ID or
        // ?after=N means "I have everything up to and including N".
        // An id that does not parse counts as absent (replay from 0), and
        // the largest id saturates instead of wrapping back to 0.
        std::string last = request.header("last-event-id");
        if (last.empty()) last = request.query_param("after");
        const std::optional<std::uint64_t> seen = cli::parse_u64(last);
        std::uint64_t next =
            seen ? *seen + (*seen != std::numeric_limits<std::uint64_t>::max())
                 : 0;
        const bool once = request.query_param("once") == "1";
        for (;;) {
          const std::vector<std::string> lines = src->event_lines();
          for (; next < lines.size(); ++next) {
            if (!stream.write(obs::sse_event(next, lines[next]))) return;
          }
          if (once) return;
          if (src->finished()) {
            stream.write("event: drained\ndata: {}\n\n");
            return;
          }
          if (!stream.wait(kEventsPollSeconds)) return;
        }
      });
  obs::http::ServerOptions server_options;
  server_options.bind_address = options.bind_address;
  server_options.port = options.port;
  server->start(server_options);
  return server;
}

}  // namespace icr::sim::farm
