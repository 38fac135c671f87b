// HTTP status serving for campaigns and long simulations: glue between the
// telemetry substrate (src/sim/farm_telemetry, src/sim/campaign progress,
// icr_sim run state) and the embedded server (src/obs/http_server).
//
// One StatusSource abstraction, three implementations:
//
//   * SpoolStatusSource    — re-collects farm status from the spool on every
//     request. Read-only over the files by construction, so serving can
//     never perturb aggregation (exports stay byte-identical with --serve
//     on; tier-1 guarded).
//   * CampaignStatusSource — in-process `run_campaign` runs: reads the live
//     completed-cell counter the runner publishes after every cell.
//   * SimStatusSource      — `icr_sim --serve`: the simulation thread
//     pushes snapshots between run chunks; the HTTP threads only read the
//     latest snapshot under a mutex.
//
// start_status_server() wires any source to the five endpoints
// (docs/SERVING.md): GET / (dashboard), /healthz, /status (the --status-json
// NDJSON, schema kStatusSchemaVersion), /metrics (Prometheus text 0.0.4)
// and /events (Server-Sent Events over the merged (time, worker, seq)
// event log; resume via Last-Event-ID or ?after=N, one-shot dump via
// ?once=1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/http_server.h"
#include "src/obs/prof.h"
#include "src/sim/farm_telemetry.h"

namespace icr::sim::farm {

class StatusSource {
 public:
  virtual ~StatusSource() = default;
  // NDJSON, same shape as --status-json (one summary line + detail lines).
  [[nodiscard]] virtual std::string status_ndjson() = 0;
  // Prometheus text exposition 0.0.4.
  [[nodiscard]] virtual std::string metrics_text() = 0;
  // Merged event log as NDJSON lines (no trailing newline). The SSE event
  // id is the line's index in this stream; the merge order is a pure
  // function of the spool files so ids are stable across re-reads once a
  // worker's log has been written. Empty for sources without event logs.
  [[nodiscard]] virtual std::vector<std::string> event_lines() = 0;
  // True once no further updates will come (farm drained / run finished):
  // /events streams close after their final batch.
  [[nodiscard]] virtual bool finished() = 0;
};

// Farm spool: every request re-reads the files (heartbeats, events,
// claims), exactly like `--farm-status` would.
class SpoolStatusSource : public StatusSource {
 public:
  SpoolStatusSource(std::string spool, Manifest manifest,
                    StalenessPolicy staleness = {});
  std::string status_ndjson() override;
  std::string metrics_text() override;
  std::vector<std::string> event_lines() override;
  bool finished() override;

 private:
  [[nodiscard]] FarmStatus collect() const;
  std::string spool_;
  Manifest manifest_;
  FarmStatusOptions options_;
};

// In-process campaign: progress is the runner's live completed-cell
// counter (ProgressOptions::live_cells_done points at cells_done()).
class CampaignStatusSource : public StatusSource {
 public:
  CampaignStatusSource(std::uint64_t total_cells,
                       std::uint64_t instructions_per_cell);
  [[nodiscard]] std::atomic<std::uint64_t>& cells_done() noexcept {
    return cells_done_;
  }
  void finish() { finished_.store(true); }
  std::string status_ndjson() override;
  std::string metrics_text() override;
  std::vector<std::string> event_lines() override { return {}; }
  bool finished() override { return finished_.load(); }

 private:
  std::uint64_t total_cells_;
  std::uint64_t instructions_per_cell_;
  double start_monotonic_seconds_;
  std::atomic<std::uint64_t> cells_done_{0};
  std::atomic<bool> finished_{false};
};

// Single simulation (icr_sim --serve): the sim thread calls update()
// between run chunks; HTTP threads read the latest snapshot.
class SimStatusSource : public StatusSource {
 public:
  SimStatusSource(std::string scheme, std::string app,
                  std::uint64_t total_instructions);
  // Counter names/values are a registry snapshot (may be empty); zones a
  // prof::snapshot_zones() result (empty without --prof).
  void update(std::uint64_t instructions_done,
              std::vector<std::pair<std::string, std::uint64_t>> counters = {},
              std::vector<obs::prof::ZoneNode> zones = {});
  void finish();
  std::string status_ndjson() override;
  std::string metrics_text() override;
  std::vector<std::string> event_lines() override { return {}; }
  bool finished() override;

 private:
  std::string scheme_;
  std::string app_;
  std::uint64_t total_instructions_;
  double start_monotonic_seconds_;
  mutable std::mutex mutex_;
  std::uint64_t instructions_done_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<obs::prof::ZoneNode> zones_;
  bool finished_ = false;
};

struct ServeOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; Server::port() has the real one
};

// "PORT" or "ADDR:PORT" (e.g. "8080", "0.0.0.0:8080") into `options`;
// throws std::runtime_error on malformed input or a port above 65535.
void parse_serve_spec(const std::string& spec, ServeOptions* options);

// Registers the five endpoints on a fresh server and starts it on the
// --serve text `serve_spec` (parse_serve_spec). The source must outlive the
// returned server; stop() (or destruction) joins every connection. Throws
// std::runtime_error on a malformed spec or a failed bind.
[[nodiscard]] std::unique_ptr<obs::http::Server> start_status_server(
    StatusSource& source, const std::string& serve_spec);

}  // namespace icr::sim::farm
