// Golden bytes of every JSON/NDJSON document the simulator writes.
//
// Each document below is built from one small fixed input and compared
// byte for byte with a checked-in file under tests/golden/json/. Exports
// are the reproduction's only output, so a writer change that moves a
// space, a comma or a digit is a schema change and must show up here.
// Every document (every line, for NDJSON) must also parse with the repo's
// own JSON reader.
//
// A missing golden file is written from the current output and the test
// fails, so regenerating means deleting the file and rerunning the test.
// Only do that for a deliberate schema change, and say so in the change
// description.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/obs_io.h"
#include "src/obs/prof_io.h"
#include "src/rel/rel_io.h"
#include "src/sim/farm.h"
#include "src/sim/farm_telemetry.h"
#include "src/sim/results_io.h"
#include "src/util/fs.h"
#include "src/util/json.h"

namespace icr {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(ICR_GOLDEN_DIR) + "/" + name;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_parses(const std::string& name, const std::string& text,
                   bool ndjson) {
  const std::vector<std::string> docs =
      ndjson ? lines_of(text) : std::vector<std::string>{text};
  for (std::size_t i = 0; i < docs.size(); ++i) {
    try {
      (void)util::JsonValue::parse(docs[i]);
    } catch (const std::exception& error) {
      ADD_FAILURE() << name << (ndjson ? " line " + std::to_string(i + 1)
                                       : std::string())
                    << " does not parse: " << error.what();
    }
  }
}

void expect_golden(const std::string& name, const std::string& got,
                   bool ndjson = false) {
  expect_parses(name, got, ndjson);
  const std::string path = golden_path(name);
  if (!util::fs::exists(path)) {
    util::fs::atomic_write_text_file(path, got);
    FAIL() << "golden " << path << " was missing; wrote the current output";
  }
  const std::string want = util::fs::read_text_file(path);
  if (got == want) return;
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const auto context = [at](const std::string& text) {
    const std::size_t from = at < 40 ? 0 : at - 40;
    return text.substr(from, 80);
  };
  ADD_FAILURE() << name << ": first difference at byte " << at << " (want "
                << want.size() << " bytes, got " << got.size()
                << ")\nwant: " << context(want) << "\n got: " << context(got);
}

// ---- campaign results ----

sim::CellResult campaign_cell(const std::string& variant,
                              const std::string& app, std::uint32_t trial,
                              std::uint64_t scale) {
  sim::CellResult cell;
  cell.cell.variant_idx = 0;
  cell.cell.trial_idx = trial;
  cell.cell.seed = 0x9E3779B97F4A7C15ULL + scale;
  cell.result.scheme = variant;
  cell.result.app = app;
  cell.result.instructions = 20000;
  cell.result.cycles = 31000 + 17 * scale;
  cell.result.dl1.loads = 5000 + scale;
  cell.result.dl1.load_hits = 4700 + scale;
  cell.result.dl1.load_misses = 300;
  cell.result.dl1.stores = 2100;
  cell.result.dl1.store_hits = 2000;
  cell.result.dl1.store_misses = 100;
  cell.result.dl1.replication_opportunities = 2100;
  cell.result.dl1.replication_successes = 1400 + scale;
  cell.result.dl1.loads_with_replica = 3100;
  cell.result.dl1.replicas_created = 1700;
  cell.result.dl1.errors_detected = scale;
  cell.result.faults.injections = 3 * scale;
  cell.result.energy.l1_nj = 1234.5 + static_cast<double>(scale) / 3.0;
  cell.result.energy.l2_nj = 0.1;
  cell.sampling.sampled = true;
  cell.sampling.budget = 20000;
  cell.sampling.warmup_instructions = 2000;
  cell.sampling.windows = 4;
  cell.sampling.measured_instructions = 7000 + scale;
  cell.geometry.present = true;
  cell.geometry.dl1_size_bytes = 16384;
  cell.geometry.dl1_assoc = 4;
  cell.geometry.ways_disabled = static_cast<std::uint32_t>(scale % 3);
  return cell;
}

sim::CampaignResult fixed_campaign() {
  sim::CampaignResult campaign;
  campaign.meta.base_seed = 7;
  campaign.meta.config_hash = 0xC0FFEE0123456789ULL;
  campaign.meta.instructions = 20000;
  campaign.meta.trials = 2;
  campaign.meta.threads = 3;
  campaign.meta.sampling.warmup_instructions = 2000;
  campaign.meta.sampling.windows = 4;
  campaign.meta.sampling.window_width = 500;
  campaign.meta.sampling.mode = sim::SampleMode::kRandom;
  campaign.meta.geometry = true;
  campaign.meta.completed_cells = 3;
  campaign.meta.wall_seconds = 0.125;
  campaign.meta.cells_per_second = 24.0;
  campaign.meta.mips = 1.0 / 3.0;
  campaign.cells.push_back(campaign_cell("BaseP", "mcf", 0, 1));
  campaign.cells.push_back(campaign_cell("ICR-P-PS(S)", "mcf", 1, 2));
  campaign.cells.push_back(campaign_cell("dir/a\"b\\c.icrt", "t\tab", 0, 5));
  return campaign;
}

TEST(JsonGolden, CampaignNoTiming) {
  expect_golden("campaign_no_timing.json",
                sim::to_json(fixed_campaign(), /*include_timing=*/false));
}

TEST(JsonGolden, CampaignWithTiming) {
  expect_golden("campaign_timing.json",
                sim::to_json(fixed_campaign(), /*include_timing=*/true));
}

TEST(JsonGolden, CampaignPlainSchema) {
  sim::CampaignResult campaign = fixed_campaign();
  campaign.meta.sampling = sim::SamplingOptions{};
  campaign.meta.geometry = false;
  expect_golden("campaign_plain.json", sim::to_json(campaign, false));
}

// ---- analytical reliability ----

rel::RelReport rel_report(bool with_intervals) {
  rel::RelReport report;
  report.model_supported = with_intervals;
  report.cycles = 31000;
  report.clock_ghz = 2.0;
  report.probability = 1e-3;
  report.word_cycles = 123456.0;
  report.total_exposure = 98765.25;
  for (std::size_t s = 0; s < rel::kRelStates; ++s) {
    report.state_cycles[s] = 1000.0 * static_cast<double>(s + 1);
    report.state_exposure[s] = 0.1 * static_cast<double>(s + 1);
  }
  report.corrected_coef = 1.5;
  report.replica_coef = 2.25;
  report.detected_coef = 0.125;
  report.silent_coef = 1.0 / 7.0;
  report.scrub_coef = 0.5;
  report.unobserved_coef = 3.0;
  report.deposited_coef = 4.0;
  report.open_exposure = 5.5;
  report.pending_residual = 0.0625;
  if (with_intervals) {
    report.intervals.push_back(rel::IntervalClassRow{
        rel::IntervalStart::kFill, rel::IntervalEnd::kRead,
        rel::RelState::kParityClean, 12, 3400.5, 0.75});
    report.intervals.push_back(rel::IntervalClassRow{
        rel::IntervalStart::kWrite, rel::IntervalEnd::kEvictDirty,
        rel::RelState::kReplicatedDirty, 3, 210.0, 1.0 / 3.0});
  }
  return report;
}

TEST(JsonGolden, RelReportTopLevel) {
  // The single-run --rel-out document.
  for (const bool with_intervals : {true, false}) {
    std::string json;
    util::JsonWriter writer(json);
    rel::append_json(writer, rel_report(with_intervals),
                     obs::CellTag{"ICR-P-PS(S)", "gzip", 0});
    expect_golden(with_intervals ? "rel_report.json"
                                 : "rel_report_no_intervals.json",
                  json);
  }
}

TEST(JsonGolden, RelCampaign) {
  sim::CampaignResult campaign = fixed_campaign();
  campaign.cells[0].rel =
      std::make_unique<rel::RelReport>(rel_report(/*with_intervals=*/true));
  campaign.cells[2].rel =
      std::make_unique<rel::RelReport>(rel_report(/*with_intervals=*/false));
  expect_golden("rel_campaign.json", sim::rel_to_json(campaign));
}

// ---- event trace ----

TEST(JsonGolden, EventTraceNdjson) {
  using obs::EventKind;
  const std::vector<obs::TraceEvent> events = {
      {10, EventKind::kReplicationAttempt, 0x1000, 1, 2},
      {11, EventKind::kReplicaCreate, 0x1040, 3, 32},
      {12, EventKind::kReplicaEvict, 0x2000, 7, 0},
      {13, EventKind::kDeadBlockRecycle, 0x3000, 9, 1000},
      {14, EventKind::kFaultInject, 5, 1, 2},
      {15, EventKind::kFaultVerdict, 0xFFFFFFFFFFFFFFF8ULL,
       static_cast<std::uint64_t>(obs::FaultVerdict::kSilent), 0},
  };
  std::string out;
  obs::append_ndjson(out, events, obs::CellTag{"ICR-ECC-PP(LS)", "mcf", 1});
  obs::append_ndjson(out, {events[1]}, obs::CellTag{"BaseP", "gzip", 0});
  expect_golden("event_trace.ndjson", out, /*ndjson=*/true);
}

// ---- campaign farm ----

TEST(JsonGolden, FarmUnitRecord) {
  std::vector<sim::farm::CellRecord> records;
  for (std::uint32_t i = 0; i < 2; ++i) {
    sim::farm::CellRecord record = sim::farm::CellRecord::from_cell(
        campaign_cell(i == 0 ? "BaseP" : "a\"b", "mcf", i, i + 1));
    record.variant_idx = i;
    record.app_idx = 1;
    records.push_back(std::move(record));
  }
  records[1].geometry.present = false;
  records[1].sampling.sampled = false;
  expect_golden("farm_unit.json", sim::farm::unit_to_json(4, records));
}

sim::farm::Manifest fixed_manifest() {
  sim::farm::Manifest m;
  m.config_hash = 0x0123456789ABCDEFULL;
  m.base_seed = 42;
  m.instructions = 40000;
  m.trials = 2;
  m.derive_seeds = true;
  m.variant_count = 6;
  m.app_count = 3;
  m.total_cells = 36;
  m.unit_cells = 5;
  m.unit_count = 8;
  m.schemes = {"BaseP", "ICR-P-PS(S)"};
  m.apps = {"shard0", "shard1", "shard2"};
  m.decay_window = 1000;
  m.fault_model = "random";
  m.fault_probability = 1e-4;
  m.sampling.warmup_instructions = 1000;
  m.sampling.windows = 2;
  m.trace.path = "traces/g\"zip.icrt";
  m.trace.shard_instructions = 10000;
  m.trace.fingerprint = 0xFEEDFACECAFEBEEFULL;
  m.trace.records = 52000;
  m.geometry.sizes = {8192, 16384};
  m.geometry.assocs = {4};
  m.geometry.ways_disabled = {0, 1, 2};
  m.geometry.pattern = mem::WayDisableConfig::Pattern::kRandom;
  return m;
}

TEST(JsonGolden, FarmManifest) {
  expect_golden("farm_manifest.json", fixed_manifest().to_json());
}

sim::farm::WorkerHeartbeat fixed_heartbeat() {
  sim::farm::WorkerHeartbeat hb;
  hb.worker_id = "host-1";
  hb.pid = 4242;
  hb.seq = 17;
  hb.time_unix_seconds = 1700000000.25;
  hb.uptime_seconds = 12.5;
  hb.units_done = 3;
  hb.cells_done = 15;
  hb.current_unit = 4;
  hb.current_cell = -1;
  hb.instructions_done = 600000;
  hb.mips = 0.1;
  hb.exited = false;
  hb.rusage.maxrss_kb = 20480;
  hb.rusage.utime_seconds = 11.75;
  hb.rusage.stime_seconds = 0.25;
  return hb;
}

TEST(JsonGolden, FarmHeartbeat) {
  sim::farm::WorkerHeartbeat hb = fixed_heartbeat();
  expect_golden("farm_heartbeat.json", hb.to_json());
  hb.exited = true;
  hb.prof_zones = {
      {"Campaign::cell", "Campaign::cell", 0, 3, 9000000, 1000},
      {"Campaign::cell/Pipeline::run", "Pipeline::run", 1, 3, 8999000,
       8999000},
  };
  expect_golden("farm_heartbeat_prof.json", hb.to_json());
}

TEST(JsonGolden, FarmEventLine) {
  sim::farm::FarmEvent event;
  event.worker_id = "w\"1";
  event.seq = 5;
  event.time_unix_seconds = 1700000001.5;
  event.type = sim::farm::FarmEventType::kPublish;
  event.unit = 3;
  event.cells = 5;
  event.duration_seconds = 0.75;
  std::string out = event.to_ndjson_line();
  event.type = sim::farm::FarmEventType::kStaleClear;
  event.unit = -1;
  event.detail = "claim of unit 7\nage 99s";
  out += event.to_ndjson_line();
  expect_golden("farm_events.ndjson", out, /*ndjson=*/true);
}

TEST(JsonGolden, FarmStatusNdjson) {
  sim::farm::FarmStatus status;
  status.census.unit_count = 8;
  status.census.units_done = 3;
  status.census.cells_done = 15;
  status.census.claims_outstanding = 2;
  status.total_cells = 36;
  status.claims_live = 1;
  status.claims_stale = 1;
  status.event_count = 40;
  status.dropped_event_lines = 1;
  status.unreadable_heartbeats = 0;
  status.elapsed_seconds = 30.5;
  status.throughput.rate = 0.5;
  status.throughput.percent = 41.6666667;
  status.throughput.eta_seconds = 42.0;
  sim::farm::WorkerStatus running;
  running.heartbeat = fixed_heartbeat();
  running.state = sim::farm::WorkerState::kRunning;
  running.age_seconds = 1.25;
  running.cells_per_second = 0.4;
  sim::farm::WorkerStatus dead = running;
  dead.heartbeat.worker_id = "host-2";
  dead.heartbeat.current_unit = -1;
  dead.state = sim::farm::WorkerState::kDead;
  dead.age_seconds = 600.0;
  status.workers = {running, dead};
  expect_golden("farm_status.ndjson", sim::farm::farm_status_to_ndjson(status),
                /*ndjson=*/true);
}

std::vector<sim::farm::FarmEvent> fleet_events() {
  using sim::farm::FarmEventType;
  const auto event = [](const char* worker, FarmEventType type,
                        std::int64_t unit, double t, double dur) {
    sim::farm::FarmEvent e;
    e.worker_id = worker;
    e.type = type;
    e.unit = unit;
    e.cells = 5;
    e.time_unix_seconds = t;
    e.duration_seconds = dur;
    return e;
  };
  return {
      event("w2", FarmEventType::kWorkerStart, -1, 1700000000.0, 0.0),
      event("w2", FarmEventType::kClaim, 0, 1700000000.5, 0.0),
      event("w2", FarmEventType::kPublish, 0, 1700000002.125, 1.625),
      event("w1", FarmEventType::kClaimConflict, 0, 1700000000.75, 0.0),
      event("w1", FarmEventType::kPublish, 1, 1700000003.0, 2.0000005),
      event("coordinator", FarmEventType::kStaleClear, 2, 1700000004.0, 0.0),
      event("w1", FarmEventType::kExit, -1, 1700000005.0, 0.0),
  };
}

TEST(JsonGolden, FleetUnitSpansTrace) {
  expect_golden("fleet_spans.json",
                sim::farm::fleet_unit_spans_trace(fleet_events()));
}

// ---- host profiler ----

obs::prof::Profile fixed_profile() {
  obs::prof::Profile profile;
  profile.threads = 2;
  profile.wall_ns = 5000000;
  profile.dropped_events = 1;
  profile.zones = {
      {"Campaign::cell", "Campaign::cell", 0, 2, 4000000, 100000},
      {"Campaign::cell/Pipeline::run", "Pipeline::run", 1, 2, 3900000,
       3900000},
  };
  profile.events = {
      {"Campaign::cell", "BaseP/mcf/0", 1000, 2000500, 0, 0},
      {"Campaign::cell", "", 2500, 1999999, 1, 0},
  };
  return profile;
}

TEST(JsonGolden, ChromeTrace) {
  expect_golden("chrome_trace.json",
                obs::prof::to_chrome_trace(fixed_profile(), "run\"campaign",
                                           7, 1700000000000000.0));
}

TEST(JsonGolden, MergedChromeTraces) {
  expect_golden(
      "chrome_merged.json",
      obs::prof::merge_chrome_traces(
          {sim::farm::fleet_unit_spans_trace(fleet_events()), "[\n]\n",
           obs::prof::to_chrome_trace(fixed_profile(), "worker", 3, 0.0)}));
}

}  // namespace
}  // namespace icr
