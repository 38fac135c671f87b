// Tier-1 acceptance of the HTTP status serving layer (src/sim/serve.h),
// over a real two-worker farm spool:
//
//   * /metrics parses as Prometheus text 0.0.4 and carries the farm,
//     worker and latency-histogram families;
//   * /status is the --status-json NDJSON (schema kStatusSchemaVersion)
//     and round-trips through farm_status_from_ndjson;
//   * /events replays the full merged event log over SSE, including
//     resume via ?after=N and the Last-Event-ID header;
//   * serving is read-only: aggregated exports are byte-identical with the
//     server up and fielding requests vs. no server at all.
#include "src/sim/serve.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/http_server.h"
#include "src/sim/campaign.h"
#include "src/sim/farm.h"
#include "src/sim/farm_telemetry.h"
#include "src/util/json.h"

namespace icr::sim::farm {
namespace {

std::string make_temp_dir() {
  char tmpl[] = "/tmp/icr_serve_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.variants = {
      {"BaseP", core::Scheme::BaseP()},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
  };
  spec.apps = {trace::App::kVortex, trace::App::kMcf};
  spec.instructions = 20000;
  spec.trials = 2;
  spec.derive_seeds = true;
  spec.base_seed = 0xD5DB2003ULL;
  spec.config.fault_model = fault::FaultModel::kRandom;
  spec.config.fault_probability = 1e-4;
  return spec;
}

// Runs the spec to completion on two telemetry-publishing workers, exactly
// like `run_campaign --farm --workers=2` (in-process for test speed).
std::string build_two_worker_spool(const CampaignSpec& spec) {
  const std::string spool = make_temp_dir() + "/spool";
  const Manifest manifest = manifest_for(spec, /*unit_cells=*/2);
  init_spool(spool, manifest);
  const std::uint32_t half = manifest.unit_count / 2;
  WorkerOptions w0_options;
  w0_options.worker_id = "w0";
  WorkerTelemetry w0(spool, w0_options);
  (void)run_worker_loop(spool, spec, /*max_units=*/half, nullptr, &w0);
  WorkerOptions w1_options;
  w1_options.worker_id = "w1";
  WorkerTelemetry w1(spool, w1_options);
  (void)run_worker_loop(spool, spec, /*max_units=*/0, nullptr, &w1);
  EXPECT_TRUE(scan_spool(spool, manifest).complete());
  return spool;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

// The same shape the CI smoke's python checker enforces: every line is a
// HELP/TYPE comment or "<legal-name>[{...}] <value>".
void expect_valid_prometheus_text(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) name = name.substr(0, brace);
    ASSERT_FALSE(name.empty()) << line;
    for (const char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

// SSE "data: " payloads, in arrival order.
std::vector<std::string> sse_data_lines(const std::string& body) {
  std::vector<std::string> out;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("data: ", 0) == 0) out.push_back(line.substr(6));
  }
  return out;
}

TEST(ServeSpec, ParsesPortAndAddressForms) {
  ServeOptions options;
  parse_serve_spec("8080", &options);
  EXPECT_EQ(options.bind_address, "127.0.0.1");
  EXPECT_EQ(options.port, 8080);
  parse_serve_spec("0.0.0.0:9091", &options);
  EXPECT_EQ(options.bind_address, "0.0.0.0");
  EXPECT_EQ(options.port, 9091);
  EXPECT_THROW(parse_serve_spec("", &options), std::runtime_error);
  EXPECT_THROW(parse_serve_spec("nonsense", &options), std::runtime_error);
  EXPECT_THROW(parse_serve_spec("127.0.0.1:", &options), std::runtime_error);
  EXPECT_THROW(parse_serve_spec("127.0.0.1:99999", &options),
               std::runtime_error);
}

TEST(ServeFarm, ServesStatusMetricsEventsAndDashboardOverASpool) {
  const CampaignSpec spec = small_spec();
  const std::string spool = build_two_worker_spool(spec);
  const Manifest manifest = load_manifest(spool);

  SpoolStatusSource source(spool, manifest);
  const auto server = start_status_server(source, "0");  // ephemeral port
  const std::string base = server->url();

  // /healthz
  EXPECT_EQ(obs::http::http_get(base + "/healthz").body, "ok\n");

  // /status: --status-json NDJSON at the current schema; round-trips.
  const obs::http::FetchResult status_reply =
      obs::http::http_get(base + "/status");
  ASSERT_EQ(status_reply.status, 200);
  const util::JsonValue first = util::JsonValue::parse(
      status_reply.body.substr(0, status_reply.body.find('\n')));
  EXPECT_EQ(first.get("type").as_string(), "farm");
  EXPECT_EQ(static_cast<int>(first.get("schema").as_double()),
            kStatusSchemaVersion);
  EXPECT_TRUE(first.get("complete").as_bool());
  const FarmStatus remote = farm_status_from_ndjson(status_reply.body);
  EXPECT_EQ(remote.schema, kStatusSchemaVersion);
  EXPECT_EQ(remote.census.unit_count, manifest.unit_count);
  EXPECT_EQ(remote.census.cells_done, manifest.total_cells);
  ASSERT_EQ(remote.workers.size(), 2u);
  EXPECT_EQ(remote.workers[0].heartbeat.worker_id, "w0");
  EXPECT_EQ(remote.workers[1].heartbeat.worker_id, "w1");
  EXPECT_TRUE(remote.workers[0].heartbeat.exited);

  // /metrics: valid exposition text carrying the farm families.
  const obs::http::FetchResult metrics_reply =
      obs::http::http_get(base + "/metrics");
  ASSERT_EQ(metrics_reply.status, 200);
  expect_valid_prometheus_text(metrics_reply.body);
  for (const char* family :
       {"icr_farm_units_total", "icr_farm_cells_done", "icr_farm_workers",
        "icr_worker_up", "icr_worker_cells_per_second",
        "icr_farm_unit_latency_milliseconds_bucket",
        "icr_farm_status_schema"}) {
    EXPECT_NE(metrics_reply.body.find(family), std::string::npos) << family;
  }
  EXPECT_NE(metrics_reply.body.find("worker=\"w0\""), std::string::npos);

  // /events: the full merged log over SSE, ids 0..N-1, then `drained`
  // (this spool is complete, so the stream closes by itself).
  const FarmStatus local = collect_farm_status(spool, manifest);
  ASSERT_TRUE(local.drained());
  const obs::http::FetchResult events_reply =
      obs::http::http_get(base + "/events");
  ASSERT_EQ(events_reply.status, 200);
  const std::vector<std::string> replay = sse_data_lines(events_reply.body);
  // The final frame is the `drained` sentinel's "{}" payload.
  ASSERT_EQ(replay.size(), local.event_count + 1);
  EXPECT_NE(events_reply.body.find("event: drained"), std::string::npos);
  std::size_t publishes = 0;
  for (std::size_t i = 0; i + 1 < replay.size(); ++i) {
    const FarmEvent event = FarmEvent::parse(replay[i]);  // throws if torn
    if (event.type == FarmEventType::kPublish) ++publishes;
  }
  EXPECT_EQ(publishes, manifest.unit_count);
  EXPECT_NE(events_reply.body.find("id: 0\n"), std::string::npos);

  // Resume semantics: ?after=N and Last-Event-ID skip what was seen.
  const obs::http::FetchResult resumed = obs::http::http_get(
      base + "/events?after=2&once=1");
  const std::vector<std::string> tail = sse_data_lines(resumed.body);
  ASSERT_EQ(tail.size(), local.event_count - 3);
  EXPECT_EQ(resumed.body.find("id: 2\n"), std::string::npos);
  EXPECT_NE(resumed.body.find("id: 3\n"), std::string::npos);
  const obs::http::FetchResult header_resumed = obs::http::http_get(
      base + "/events?once=1", 10.0, {"Last-Event-ID: 2"});
  EXPECT_EQ(sse_data_lines(header_resumed.body).size(), tail.size());

  // / is the self-contained dashboard.
  const obs::http::FetchResult page = obs::http::http_get(base + "/");
  EXPECT_NE(page.body.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(page.body.find("EventSource"), std::string::npos);

  server->stop();
}

TEST(ServeFarm, EventsReplayFromZeroWhenTheResumeIdDoesNotParse) {
  // An id that does not parse counts as absent, so the stream replays from
  // event 0 instead of silently resuming at 1; the largest id saturates
  // instead of wrapping back to 0.
  const CampaignSpec spec = small_spec();
  const std::string spool = build_two_worker_spool(spec);
  const Manifest manifest = load_manifest(spool);
  const std::size_t events = collect_farm_status(spool, manifest).event_count;
  ASSERT_GT(events, 1u);
  SpoolStatusSource source(spool, manifest);
  const auto server = start_status_server(source, "0");
  const std::string base = server->url();

  const obs::http::FetchResult garbage =
      obs::http::http_get(base + "/events?after=abc&once=1");
  ASSERT_EQ(garbage.status, 200);
  EXPECT_EQ(garbage.body.rfind("id: 0\n", 0), 0u) << garbage.body.substr(0, 80);
  EXPECT_EQ(sse_data_lines(garbage.body).size(), events);

  const obs::http::FetchResult header = obs::http::http_get(
      base + "/events?once=1", 10.0, {"Last-Event-ID: -1"});
  EXPECT_EQ(header.body.rfind("id: 0\n", 0), 0u);
  EXPECT_EQ(sse_data_lines(header.body).size(), events);

  const obs::http::FetchResult last = obs::http::http_get(
      base + "/events?after=18446744073709551615&once=1");
  ASSERT_EQ(last.status, 200);
  EXPECT_TRUE(sse_data_lines(last.body).empty());
  server->stop();
}

TEST(ServeFarm, ServingLeavesAggregatedExportsByteIdentical) {
  const CampaignSpec spec = small_spec();
  const std::string spool = build_two_worker_spool(spec);
  const Manifest manifest = load_manifest(spool);
  const std::string out = make_temp_dir();

  // Reference: aggregate with no server anywhere near the spool.
  aggregate_spool(spool, manifest, out + "/ref.csv", out + "/ref.json");

  // Aggregate again while the server is up and actively fielding requests.
  SpoolStatusSource source(spool, manifest);
  const auto server = start_status_server(source, "0");
  (void)obs::http::http_get(server->url() + "/metrics");
  (void)obs::http::http_get(server->url() + "/status");
  aggregate_spool(spool, manifest, out + "/serve.csv", out + "/serve.json");
  (void)obs::http::http_get(server->url() + "/events?once=1");
  server->stop();

  EXPECT_EQ(slurp(out + "/ref.csv"), slurp(out + "/serve.csv"));
  EXPECT_EQ(slurp(out + "/ref.json"), slurp(out + "/serve.json"));
}

TEST(ServeCampaign, InProcessSourceReportsLiveProgress) {
  CampaignStatusSource source(/*total_cells=*/8,
                              /*instructions_per_cell=*/20000);
  source.cells_done().store(2);
  const std::string line = source.status_ndjson();
  const util::JsonValue record =
      util::JsonValue::parse(line.substr(0, line.find('\n')));
  EXPECT_EQ(record.get("type").as_string(), "campaign");
  EXPECT_EQ(static_cast<int>(record.get("schema").as_double()),
            kStatusSchemaVersion);
  EXPECT_EQ(static_cast<std::uint64_t>(record.get("total_cells").as_double()),
            8u);
  EXPECT_EQ(static_cast<std::uint64_t>(record.get("cells_done").as_double()),
            2u);
  EXPECT_FALSE(record.get("finished").as_bool());
  EXPECT_FALSE(source.finished());
  source.finish();
  EXPECT_TRUE(source.finished());
  expect_valid_prometheus_text(source.metrics_text());
}

TEST(ServeSim, SimSourceSnapshotsCountersAndZones) {
  SimStatusSource source("ICR-P-PS(S)", "vortex",
                         /*total_instructions=*/1000000);
  source.update(250000, {{"dl1.read-hits", 42}}, {});
  const std::string line = source.status_ndjson();
  const util::JsonValue record =
      util::JsonValue::parse(line.substr(0, line.find('\n')));
  EXPECT_EQ(record.get("type").as_string(), "sim");
  EXPECT_EQ(record.get("scheme").as_string(), "ICR-P-PS(S)");
  EXPECT_EQ(record.get("app").as_string(), "vortex");
  EXPECT_EQ(
      static_cast<std::uint64_t>(record.get("instructions_done").as_double()),
      250000u);
  EXPECT_DOUBLE_EQ(record.get("percent").as_double(), 25.0);

  const std::string metrics = source.metrics_text();
  expect_valid_prometheus_text(metrics);
  EXPECT_NE(metrics.find("icr_stat_dl1_read_hits"), std::string::npos);
  EXPECT_NE(metrics.find("scheme=\"ICR-P-PS(S)\""), std::string::npos);
  source.finish();
  EXPECT_TRUE(source.finished());
}

TEST(ServeSim, StatusEscapesATracePathUsedAsTheApp) {
  // icr_sim --serve --trace=PATH labels the run with the trace path, which
  // may hold any byte a file name can.
  const std::string path = "traces/run \"7\"\\gzip.icrt";
  SimStatusSource source("BaseP", path, /*total_instructions=*/1000);
  const std::string line = source.status_ndjson();
  const util::JsonValue record =
      util::JsonValue::parse(line.substr(0, line.find('\n')));
  EXPECT_EQ(record.get("app").as_string(), path);
  EXPECT_EQ(record.get("scheme").as_string(), "BaseP");
}

TEST(ServeStatus, RejectsStatusFromAFutureSchema) {
  const std::string future =
      "{\"type\":\"farm\",\"schema\":99,\"unit_count\":1,\"units_done\":1,"
      "\"total_cells\":2,\"cells_done\":2,\"claims_outstanding\":0,"
      "\"claims_live\":0,\"claims_stale\":0,\"events\":0,"
      "\"dropped_event_lines\":0,\"unreadable_heartbeats\":0,"
      "\"percent\":100,\"cells_per_second\":1,\"eta_seconds\":0,"
      "\"elapsed_seconds\":1,\"complete\":true,\"drained\":true}\n";
  EXPECT_THROW((void)farm_status_from_ndjson(future), std::runtime_error);
  EXPECT_THROW((void)farm_status_from_ndjson("{\"type\":\"worker\"}\n"),
               std::runtime_error);  // no farm record at all
}

}  // namespace
}  // namespace icr::sim::farm
