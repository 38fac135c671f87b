// Tier-1 contract of the spool-native fleet telemetry: heartbeats
// round-trip exactly and can never be torn by a concurrent reader, the
// event-log merge is deterministic and survives truncated trailing lines,
// the staleness classifier is exact at its boundaries, and — above all —
// telemetry never changes a single exported byte.
#include "src/sim/farm_telemetry.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/campaign.h"
#include "src/sim/farm.h"
#include "src/util/fs.h"
#include "src/util/json.h"

namespace icr::sim::farm {
namespace {

std::string make_temp_spool() {
  char tmpl[] = "/tmp/icr_farm_telemetry_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir) + "/spool";
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

WorkerHeartbeat sample_heartbeat() {
  WorkerHeartbeat hb;
  hb.worker_id = "w7";
  hb.pid = 4242;
  hb.seq = 19;
  hb.time_unix_seconds = 1754700123.4567891;
  hb.uptime_seconds = 98.25;
  hb.units_done = 11;
  hb.cells_done = 44;
  hb.current_unit = 12;
  hb.current_cell = 49;
  hb.instructions_done = 880000;
  hb.mips = 8.9581;
  hb.exited = false;
  hb.rusage.maxrss_kb = 51234;
  hb.rusage.utime_seconds = 97.125;
  hb.rusage.stime_seconds = 0.75;
  obs::prof::ZoneNode zone;
  zone.path = "Campaign::cell/Pipeline::run";
  zone.name = "Pipeline::run";
  zone.depth = 1;
  zone.count = 44;
  zone.total_ns = 1234567;
  zone.self_ns = 234567;
  hb.prof_zones.push_back(zone);
  return hb;
}

TEST(WorkerHeartbeatJson, RoundTripsEveryField) {
  const WorkerHeartbeat hb = sample_heartbeat();
  const WorkerHeartbeat parsed = WorkerHeartbeat::parse(hb.to_json());
  EXPECT_EQ(parsed.version, kTelemetryFormatVersion);
  EXPECT_EQ(parsed.worker_id, hb.worker_id);
  EXPECT_EQ(parsed.pid, hb.pid);
  EXPECT_EQ(parsed.seq, hb.seq);
  EXPECT_EQ(parsed.time_unix_seconds, hb.time_unix_seconds);  // exact: %.17g
  EXPECT_EQ(parsed.uptime_seconds, hb.uptime_seconds);
  EXPECT_EQ(parsed.units_done, hb.units_done);
  EXPECT_EQ(parsed.cells_done, hb.cells_done);
  EXPECT_EQ(parsed.current_unit, hb.current_unit);
  EXPECT_EQ(parsed.current_cell, hb.current_cell);
  EXPECT_EQ(parsed.instructions_done, hb.instructions_done);
  EXPECT_EQ(parsed.mips, hb.mips);
  EXPECT_EQ(parsed.exited, hb.exited);
  EXPECT_EQ(parsed.rusage.maxrss_kb, hb.rusage.maxrss_kb);
  EXPECT_EQ(parsed.rusage.utime_seconds, hb.rusage.utime_seconds);
  EXPECT_EQ(parsed.rusage.stime_seconds, hb.rusage.stime_seconds);
  ASSERT_EQ(parsed.prof_zones.size(), 1u);
  EXPECT_EQ(parsed.prof_zones[0].path, hb.prof_zones[0].path);
  EXPECT_EQ(parsed.prof_zones[0].name, hb.prof_zones[0].name);
  EXPECT_EQ(parsed.prof_zones[0].depth, hb.prof_zones[0].depth);
  EXPECT_EQ(parsed.prof_zones[0].count, hb.prof_zones[0].count);
  EXPECT_EQ(parsed.prof_zones[0].total_ns, hb.prof_zones[0].total_ns);
  EXPECT_EQ(parsed.prof_zones[0].self_ns, hb.prof_zones[0].self_ns);

  EXPECT_THROW(WorkerHeartbeat::parse("{\"hb\": {\"version\": 99}}"),
               std::runtime_error);
  EXPECT_THROW(WorkerHeartbeat::parse("{}"), std::runtime_error);
}

TEST(WorkerHeartbeatJson, TornReadsAreImpossible) {
  // A reader polling the heartbeat file while a writer republishes it must
  // always see one complete snapshot — the previous or the next, never a
  // splice. This is the atomic-rename contract, exercised for real: one
  // thread republishes rapidly, another reads and parses continuously.
  const std::string spool = make_temp_spool();
  util::fs::make_directories(heartbeat_dir(spool));
  const std::string path = heartbeat_path(spool, "w0");

  WorkerHeartbeat hb = sample_heartbeat();
  hb.worker_id = "w0";
  hb.seq = 0;
  hb.cells_done = 0;
  util::fs::atomic_write_text_file(path, hb.to_json());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&]() {
    std::uint64_t last_seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      try {
        const WorkerHeartbeat seen =
            WorkerHeartbeat::parse(util::fs::read_text_file(path));
        if (seen.seq < last_seq) ++failures;  // time went backwards
        last_seq = seen.seq;
        // cells_done tracks seq in this writer; a torn mix would break it.
        if (seen.cells_done != seen.seq * 4) ++failures;
      } catch (const std::exception&) {
        ++failures;  // unparsable = torn or missing
      }
    }
  });
  for (std::uint64_t i = 1; i <= 500; ++i) {
    hb.seq = i;
    hb.cells_done = i * 4;
    util::fs::atomic_write_text_file(path, hb.to_json());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FarmEventJson, LineRoundTripsAndRejectsBadInput) {
  FarmEvent event;
  event.worker_id = "coordinator";
  event.seq = 7;
  event.time_unix_seconds = 1754700999.125;
  event.type = FarmEventType::kStaleClear;
  event.unit = 12;
  event.cells = 4;
  event.duration_seconds = 0.5;
  event.detail = "swept";
  const std::string line = event.to_ndjson_line();
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one line

  const FarmEvent parsed = FarmEvent::parse(line);
  EXPECT_EQ(parsed.worker_id, event.worker_id);
  EXPECT_EQ(parsed.seq, event.seq);
  EXPECT_EQ(parsed.time_unix_seconds, event.time_unix_seconds);
  EXPECT_EQ(parsed.type, event.type);
  EXPECT_EQ(parsed.unit, event.unit);
  EXPECT_EQ(parsed.cells, event.cells);
  EXPECT_EQ(parsed.duration_seconds, event.duration_seconds);
  EXPECT_EQ(parsed.detail, event.detail);

  EXPECT_THROW(FarmEvent::parse("{\"v\":99,\"worker\":\"x\"}"),
               std::runtime_error);
  EXPECT_THROW(
      FarmEvent::parse(
          "{\"v\":1,\"worker\":\"x\",\"type\":\"no_such_event\"}"),
      std::runtime_error);
}

// Crafts an event line with pinned fields (bypassing EventLog's wall
// clock) so merge order is fully controlled.
std::string event_line(const std::string& worker, std::uint64_t seq,
                       double t, FarmEventType type, std::int64_t unit = -1,
                       double dur = 0.0) {
  FarmEvent event;
  event.worker_id = worker;
  event.seq = seq;
  event.time_unix_seconds = t;
  event.type = type;
  event.unit = unit;
  event.duration_seconds = dur;
  return event.to_ndjson_line();
}

TEST(FarmEventMerge, IsDeterministicAcrossStreamsAndSkipsPartialLines) {
  const std::string spool = make_temp_spool();
  util::fs::make_directories(event_log_dir(spool));
  // Worker b's stream is written first, with timestamps interleaving a's;
  // one timestamp collides across workers (t=20) and two events on worker
  // a share it too (seq breaks the tie).
  util::fs::append_text_file(
      event_log_path(spool, "b"),
      event_line("b", 0, 15.0, FarmEventType::kWorkerStart) +
          event_line("b", 1, 20.0, FarmEventType::kClaim, 2) +
          event_line("b", 2, 30.0, FarmEventType::kPublish, 2, 10.0));
  util::fs::append_text_file(
      event_log_path(spool, "a"),
      event_line("a", 0, 10.0, FarmEventType::kWorkerStart) +
          event_line("a", 1, 20.0, FarmEventType::kClaim, 1) +
          event_line("a", 2, 20.0, FarmEventType::kPublish, 1, 0.25) +
          "{\"v\":1,\"worker\":\"a\",\"seq\":3,\"t\":99");  // killed mid-append

  std::size_t dropped = 0;
  const std::vector<FarmEvent> events = read_farm_events(spool, &dropped);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(events.size(), 6u);
  // (t, worker, seq) lexicographic: a@10, b@15, a@20#1, a@20#2, b@20, b@30.
  EXPECT_EQ(events[0].worker_id, "a");
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].worker_id, "b");
  EXPECT_EQ(events[1].seq, 0u);
  EXPECT_EQ(events[2].worker_id, "a");
  EXPECT_EQ(events[2].seq, 1u);
  EXPECT_EQ(events[3].worker_id, "a");
  EXPECT_EQ(events[3].seq, 2u);
  EXPECT_EQ(events[4].worker_id, "b");
  EXPECT_EQ(events[4].seq, 1u);
  EXPECT_EQ(events[5].worker_id, "b");
  EXPECT_EQ(events[5].seq, 2u);

  // Pure function of file contents: a second read returns the same merge.
  const std::vector<FarmEvent> again = read_farm_events(spool);
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].worker_id, events[i].worker_id);
    EXPECT_EQ(again[i].seq, events[i].seq);
  }
}

TEST(FarmEventLog, ResumesSequenceNumbersAcrossReopen) {
  const std::string spool = make_temp_spool();
  {
    EventLog log(spool, "coordinator");
    EXPECT_EQ(log.next_seq(), 0u);
    log.append(FarmEventType::kResumeSweep, -1, 2);
    log.append(FarmEventType::kStaleClear, 5);
    log.append(FarmEventType::kStaleClear, 6);
  }
  EventLog reopened(spool, "coordinator");
  EXPECT_EQ(reopened.next_seq(), 3u);  // monotonic across process restarts
  reopened.append(FarmEventType::kResumeSweep, -1, 0);

  const std::vector<FarmEvent> events = read_farm_events(spool);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.back().seq, 3u);
}

TEST(FarmTelemetry, SanitizesWorkerIds) {
  EXPECT_EQ(sanitize_worker_id("w0"), "w0");
  EXPECT_EQ(sanitize_worker_id("host-3.example_x"), "host-3.example_x");
  EXPECT_EQ(sanitize_worker_id("a/b c*"), "a_b_c_");
  EXPECT_EQ(sanitize_worker_id(""), "worker");
}

TEST(StalenessClassifier, ExactBoundaries) {
  StalenessPolicy policy;
  policy.straggler_after_seconds = 10.0;
  policy.dead_after_seconds = 60.0;

  WorkerHeartbeat hb;
  hb.time_unix_seconds = 1000.0;

  const auto classify_at_age = [&](double age) {
    return classify_worker(hb, 1000.0 + age, policy);
  };
  EXPECT_EQ(classify_at_age(0.0), WorkerState::kRunning);
  EXPECT_EQ(classify_at_age(9.999), WorkerState::kRunning);
  EXPECT_EQ(classify_at_age(10.0), WorkerState::kStraggler);  // inclusive
  EXPECT_EQ(classify_at_age(59.999), WorkerState::kStraggler);
  EXPECT_EQ(classify_at_age(60.0), WorkerState::kDead);  // inclusive
  EXPECT_EQ(classify_at_age(1e6), WorkerState::kDead);
  // Clock skew (heartbeat from the "future") counts as age zero.
  EXPECT_EQ(classify_at_age(-5.0), WorkerState::kRunning);
  // An exit record beats any age.
  hb.exited = true;
  EXPECT_EQ(classify_at_age(1e6), WorkerState::kExited);
}

TEST(FarmStatus, ClassifiesWorkersAndSplitsClaims) {
  const CampaignSpec spec = small_spec();
  const Manifest manifest = manifest_for(spec, 2);
  const std::string spool = make_temp_spool();
  init_spool(spool, manifest);
  util::fs::make_directories(heartbeat_dir(spool));

  // Unit 0 is claimed but unpublished; worker "a" says it is inside it.
  ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 0), "{}\n"));
  WorkerHeartbeat a;
  a.worker_id = "a";
  a.time_unix_seconds = 1000.0;
  a.uptime_seconds = 50.0;
  a.cells_done = 25;
  a.current_unit = 0;
  util::fs::atomic_write_text_file(heartbeat_path(spool, "a"), a.to_json());
  WorkerHeartbeat b;
  b.worker_id = "b";
  b.time_unix_seconds = 900.0;  // 105s stale at now=1005
  util::fs::atomic_write_text_file(heartbeat_path(spool, "b"), b.to_json());

  FarmStatusOptions options;
  options.now_unix_seconds = 1005.0;  // a: 5s (running), b: 105s (dead)
  const FarmStatus status = collect_farm_status(spool, manifest, options);
  ASSERT_EQ(status.workers.size(), 2u);
  EXPECT_EQ(status.workers[0].heartbeat.worker_id, "a");  // sorted by id
  EXPECT_EQ(status.workers[0].state, WorkerState::kRunning);
  EXPECT_DOUBLE_EQ(status.workers[0].age_seconds, 5.0);
  EXPECT_DOUBLE_EQ(status.workers[0].cells_per_second, 0.5);
  EXPECT_EQ(status.workers[1].heartbeat.worker_id, "b");
  EXPECT_EQ(status.workers[1].state, WorkerState::kDead);
  EXPECT_EQ(status.claims_live, 1u);   // a is alive inside unit 0
  EXPECT_EQ(status.claims_stale, 0u);
  EXPECT_FALSE(status.drained());

  // Once a goes dead too, the same claim becomes stale.
  options.now_unix_seconds = 1000.0 + 61.0;
  const FarmStatus later = collect_farm_status(spool, manifest, options);
  EXPECT_EQ(later.workers[0].state, WorkerState::kDead);
  EXPECT_EQ(later.claims_live, 0u);
  EXPECT_EQ(later.claims_stale, 1u);

  // Both renderers accept the status; the NDJSON one parses line by line.
  EXPECT_FALSE(render_farm_status(later).empty());
  const std::string ndjson = farm_status_to_ndjson(later);
  std::size_t lines = 0;
  std::size_t begin = 0;
  while (begin < ndjson.size()) {
    const std::size_t end = ndjson.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const util::JsonValue doc =
        util::JsonValue::parse(ndjson.substr(begin, end - begin));
    EXPECT_TRUE(doc.is_object());
    ++lines;
    begin = end + 1;
  }
  EXPECT_EQ(lines, 3u);  // one farm summary + two workers
}

TEST(FarmStatus, NdjsonCarriesTheSchemaVersion) {
  const CampaignSpec spec = small_spec();
  const Manifest manifest = manifest_for(spec, 2);
  const std::string spool = make_temp_spool();
  init_spool(spool, manifest);
  util::fs::make_directories(heartbeat_dir(spool));
  WorkerHeartbeat hb;
  hb.worker_id = "w0";
  hb.time_unix_seconds = 1000.0;
  hb.cells_done = 4;
  util::fs::atomic_write_text_file(heartbeat_path(spool, "w0"), hb.to_json());

  FarmStatusOptions options;
  options.now_unix_seconds = 1002.0;
  const FarmStatus status = collect_farm_status(spool, manifest, options);
  const std::string ndjson = farm_status_to_ndjson(status);

  // docs/CAMPAIGN.md "Status schema": every record carries the monotonic
  // schema version so downstream parsers can gate on it.
  std::size_t begin = 0;
  std::size_t records = 0;
  while (begin < ndjson.size()) {
    const std::size_t end = ndjson.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const util::JsonValue doc =
        util::JsonValue::parse(ndjson.substr(begin, end - begin));
    EXPECT_EQ(static_cast<int>(doc.get("schema").as_double()),
              kStatusSchemaVersion);
    ++records;
    begin = end + 1;
  }
  EXPECT_EQ(records, 2u);
}

TEST(FarmStatus, FutureDatedHeartbeatRendersAsZeroAge) {
  const CampaignSpec spec = small_spec();
  const Manifest manifest = manifest_for(spec, 2);
  const std::string spool = make_temp_spool();
  init_spool(spool, manifest);
  util::fs::make_directories(heartbeat_dir(spool));
  WorkerHeartbeat hb;
  hb.worker_id = "skewed";
  hb.time_unix_seconds = 2000.0;  // 1000s in the reader's future
  util::fs::atomic_write_text_file(heartbeat_path(spool, "skewed"),
                                   hb.to_json());

  FarmStatusOptions options;
  options.now_unix_seconds = 1000.0;
  const FarmStatus status = collect_farm_status(spool, manifest, options);
  ASSERT_EQ(status.workers.size(), 1u);
  // The classifier clamps the age; the human table must agree — never
  // "-1000.0s ago" (satellite of the serving PR).
  EXPECT_DOUBLE_EQ(status.workers[0].age_seconds, 0.0);
  const std::string table = render_farm_status(status);
  EXPECT_NE(table.find("0.0s ago"), std::string::npos);
  EXPECT_EQ(table.find("-1000"), std::string::npos);
}

TEST(FarmTelemetry, WorkerLoopEmitsTelemetryWithoutPerturbingExports) {
  const CampaignSpec spec = small_spec();
  const Manifest manifest = manifest_for(spec, 3);

  // Plain spool: telemetry off (the PR-6 baseline).
  const std::string plain = make_temp_spool();
  init_spool(plain, manifest);
  const WorkerReport plain_report = run_worker_loop(plain, spec);

  // Telemetry spool: heartbeats + events on, huge interval so only the
  // forced unit-boundary beats fire (deterministic count).
  const std::string traced = make_temp_spool();
  init_spool(traced, manifest);
  WorkerOptions topt;
  topt.worker_id = "w0";
  topt.heartbeat_seconds = 3600.0;
  WorkerTelemetry telemetry(traced, topt);
  const WorkerReport traced_report =
      run_worker_loop(traced, spec, 0, nullptr, &telemetry);

  EXPECT_EQ(plain_report.units_run, traced_report.units_run);
  EXPECT_EQ(plain_report.cells_run, traced_report.cells_run);

  // The telemetry files exist and describe the run...
  const WorkerHeartbeat hb = WorkerHeartbeat::parse(
      util::fs::read_text_file(heartbeat_path(traced, "w0")));
  EXPECT_TRUE(hb.exited);
  EXPECT_EQ(hb.units_done, traced_report.units_run);
  EXPECT_EQ(hb.cells_done, traced_report.cells_run);
  EXPECT_EQ(hb.instructions_done,
            traced_report.cells_run * manifest.instructions);
  const std::vector<FarmEvent> events = read_farm_events(traced);
  std::size_t claims = 0, publishes = 0, exits = 0;
  for (const FarmEvent& event : events) {
    if (event.type == FarmEventType::kClaim) ++claims;
    if (event.type == FarmEventType::kPublish) ++publishes;
    if (event.type == FarmEventType::kExit) ++exits;
  }
  EXPECT_EQ(claims, traced_report.units_run);
  EXPECT_EQ(publishes, traced_report.units_run);
  EXPECT_EQ(exits, 1u);

  // ...and the aggregated exports are byte-identical to the plain spool's.
  const auto aggregate = [&](const std::string& spool) {
    std::ostringstream csv, json;
    FarmAggregator aggregator(manifest, &csv, &json);
    for (std::uint32_t u = 0; u < manifest.unit_count; ++u) {
      aggregator.add_unit(u, parse_unit_json(util::fs::read_text_file(
                                                 unit_path(spool, u)),
                                             u));
    }
    aggregator.finish();
    return csv.str() + "\x1f" + json.str();
  };
  EXPECT_EQ(aggregate(plain), aggregate(traced));
}

TEST(FleetTrace, SynthesizesSpansAndMergesWorkerCaptures) {
  const std::string spool = make_temp_spool();
  util::fs::make_directories(event_log_dir(spool));
  util::fs::append_text_file(
      event_log_path(spool, "w0"),
      event_line("w0", 0, 100.0, FarmEventType::kClaim, 3) +
          event_line("w0", 1, 102.5, FarmEventType::kPublish, 3, 2.5) +
          event_line("w0", 2, 103.0, FarmEventType::kExit));
  util::fs::make_directories(worker_trace_dir(spool));
  util::fs::atomic_write_text_file(
      worker_trace_path(spool, "w0"),
      "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":77,\"tid\":0,"
      "\"args\":{\"name\":\"worker w0\"}}\n]\n");

  const std::string merged = merge_fleet_trace(spool);
  const util::JsonValue doc = util::JsonValue::parse(merged);
  ASSERT_TRUE(doc.is_array());
  bool saw_fleet = false, saw_span = false, saw_worker_capture = false;
  for (const util::JsonValue& event : doc.items()) {
    const std::string& name = event.get("name").as_string();
    if (name == "process_name" &&
        event.get("args").get("name").as_string() == "farm fleet") {
      saw_fleet = true;
    }
    if (event.get("ph").as_string() == "X" && name == "unit 3") {
      saw_span = true;
      // The span covers claim..publish in absolute unix microseconds.
      EXPECT_DOUBLE_EQ(event.get("ts").as_double(), 100.0 * 1e6);
      EXPECT_DOUBLE_EQ(event.get("dur").as_double(), 2.5 * 1e6);
      EXPECT_EQ(event.get("pid").as_double(), 0.0);
    }
    if (name == "process_name" && event.get("pid").as_double() == 77.0) {
      saw_worker_capture = true;
    }
  }
  EXPECT_TRUE(saw_fleet);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_worker_capture);
}

}  // namespace
}  // namespace icr::sim::farm
