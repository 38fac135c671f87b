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
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/obs_io.h"
#include "src/obs/prof_io.h"
#include "src/rel/rel_io.h"
#include "src/sim/results_io.h"
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
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    sim::write_text_file(path, got);
    FAIL() << "golden " << path << " was missing; wrote the current output";
  }
  const std::string want{std::istreambuf_iterator<char>(file),
                         std::istreambuf_iterator<char>()};
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

}  // namespace
}  // namespace icr
