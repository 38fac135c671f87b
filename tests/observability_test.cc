// Tier-1 guards for the observability layer's two core promises:
//
//   1. Telemetry never changes the experiment: with interval sampling and
//      event tracing on, every exported per-cell metric is bit-identical to
//      the same campaign with observability off, at any thread count.
//   2. The exports are faithful: per-interval rate columns weight-average
//      back to the aggregate RunResult values, and the NDJSON fault
//      verdicts count up to exactly the per-outcome FaultStats.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/obs_io.h"
#include "src/sim/campaign.h"
#include "src/sim/results_io.h"
#include "src/sim/simulator.h"

namespace icr {
namespace {

sim::CampaignSpec small_grid() {
  sim::CampaignSpec spec;
  spec.variants = {
      {"BaseECC", core::Scheme::BaseECC(), {}},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S().with_decay_window(1000), {}},
  };
  spec.apps = {trace::App::kGzip, trace::App::kMcf};
  spec.instructions = 40000;
  spec.trials = 1;
  spec.config.fault_probability = 1e-4;
  return spec;
}

std::vector<std::vector<double>> cell_metrics(
    const sim::CampaignResult& campaign) {
  std::vector<std::vector<double>> metrics;
  metrics.reserve(campaign.cells.size());
  for (const sim::CellResult& cell : campaign.cells) {
    metrics.push_back(sim::metric_values(cell.result));
  }
  return metrics;
}

TEST(Observability, TelemetryNeverChangesResults) {
  const sim::CampaignSpec plain = small_grid();

  sim::CampaignSpec observed = small_grid();
  observed.obs.stats_interval = 10000;
  observed.obs.trace_categories = obs::kAllCategories;

  const auto baseline = cell_metrics(sim::CampaignRunner(1).run(plain));
  const auto obs_1t = sim::CampaignRunner(1).run(observed);
  const auto obs_8t = sim::CampaignRunner(8).run(observed);

  EXPECT_EQ(baseline, cell_metrics(obs_1t));
  EXPECT_EQ(baseline, cell_metrics(obs_8t));
  // ObsOptions must not perturb the experiment fingerprint either.
  EXPECT_EQ(sim::campaign_config_hash(plain),
            sim::campaign_config_hash(observed));
  // And the telemetry itself is deterministic across thread counts.
  ASSERT_EQ(obs_1t.cells.size(), obs_8t.cells.size());
  for (std::size_t i = 0; i < obs_1t.cells.size(); ++i) {
    ASSERT_NE(obs_1t.cells[i].obs, nullptr);
    ASSERT_NE(obs_8t.cells[i].obs, nullptr);
    const obs::CellTag tag{"v", "a", 0};
    EXPECT_EQ(obs::intervals_to_csv(obs_1t.cells[i].obs->intervals, tag),
              obs::intervals_to_csv(obs_8t.cells[i].obs->intervals, tag));
    EXPECT_EQ(obs_1t.cells[i].obs->trace_emitted,
              obs_8t.cells[i].obs->trace_emitted);
  }
}

TEST(Observability, IntervalRatesWeightAverageToAggregates) {
  sim::Simulator simulator(sim::SimConfig::table1(),
                           core::Scheme::IcrPPS_S().with_decay_window(1000),
                           trace::profile_for(trace::App::kMcf));
  obs::ObsOptions options;
  options.stats_interval = 10000;
  simulator.enable_observability(options);
  const sim::RunResult result = simulator.run(100000);
  const obs::CellObservability telemetry = simulator.collect_observability();

  ASSERT_GE(telemetry.intervals.interval_count(), 10u);
  const auto pts = obs::interval_points(telemetry.intervals);
  const obs::IntervalSummary s = obs::summarize(pts);

  // The weighted means must reconstruct the aggregate RunResult: deltas
  // telescope back to the cumulative totals, so this is exact up to
  // floating-point association.
  EXPECT_NEAR(s.mean_ipc, result.ipc(), 1e-9);
  EXPECT_NEAR(s.mean_miss_rate, result.dl1.miss_rate(), 1e-9);
  EXPECT_NEAR(s.mean_replication_ability, result.dl1.replication_ability(),
              1e-9);

  // Final cumulative sample equals the aggregate counters.
  const auto& last = telemetry.intervals.samples.back();
  EXPECT_EQ(last.instructions, result.instructions);
  EXPECT_EQ(last.cycles, result.cycles);
}

TEST(Observability, NdjsonVerdictsMatchPerOutcomeFaultStats) {
  sim::SimConfig config = sim::SimConfig::table1();
  config.fault_probability = 1e-3;  // dense enough for every outcome class

  sim::Simulator simulator(config,
                           core::Scheme::IcrPPS_S().with_decay_window(1000),
                           trace::profile_for(trace::App::kVortex));
  obs::ObsOptions options;
  options.trace_categories = obs::category_bit(obs::EventCategory::kFault);
  simulator.enable_observability(options);
  const sim::RunResult result = simulator.run(60000);
  const obs::CellObservability telemetry = simulator.collect_observability();

  ASSERT_EQ(telemetry.trace_dropped, 0u)
      << "ring too small for this run; the count comparison needs all events";

  std::map<obs::FaultVerdict, std::uint64_t> verdicts;
  std::uint64_t injects = 0;
  for (const obs::TraceEvent& e : telemetry.events) {
    if (e.kind == obs::EventKind::kFaultVerdict) {
      ++verdicts[static_cast<obs::FaultVerdict>(e.a1)];
    } else if (e.kind == obs::EventKind::kFaultInject) {
      ++injects;
    }
  }

  EXPECT_GT(result.faults.observed(), 0u);
  EXPECT_EQ(injects, result.faults.injections);
  EXPECT_EQ(verdicts[obs::FaultVerdict::kCorrected], result.faults.corrected);
  EXPECT_EQ(verdicts[obs::FaultVerdict::kReplicaRecovered],
            result.faults.replica_recovered);
  EXPECT_EQ(verdicts[obs::FaultVerdict::kDetectedUncorrectable],
            result.faults.detected_uncorrectable);
  EXPECT_EQ(verdicts[obs::FaultVerdict::kSilent], result.faults.silent);

  // The verdict chain is closed: every detected-uncorrectable fault is a
  // pipeline-visible unrecoverable load and vice versa; every silent fault
  // is a silently corrupt load.
  EXPECT_EQ(result.faults.detected_uncorrectable,
            result.pipeline.unrecoverable_loads);
  EXPECT_EQ(result.faults.silent, result.pipeline.silent_corrupt_loads);
}

// Schema lock for the live simulator's interval CSV: the fixed prefix and
// the derived-column names documented in docs/OBSERVABILITY.md.
TEST(Observability, IntervalCsvHeaderGolden) {
  sim::SimConfig config = sim::SimConfig::table1();
  config.fault_probability = 1e-4;
  sim::Simulator simulator(config, core::Scheme::IcrPPS_S(),
                           trace::profile_for(trace::App::kGzip));
  obs::ObsOptions options;
  options.stats_interval = 10000;
  simulator.enable_observability(options);
  (void)simulator.run(20000);

  const std::string header =
      obs::intervals_csv_header(simulator.collect_observability().intervals);
  EXPECT_EQ(header.rfind("variant,app,trial,interval,instr_end,cycles_end,"
                         "d_instructions,d_cycles,ipc,dl1_miss_rate,"
                         "replication_ability,",
                         0),
            0u);
  for (const char* column :
       {",d_dl1.loads,", ",d_dl1.load_misses,", ",d_dl1.stores,",
        ",d_dl1.replication.opportunities,", ",d_dl1.replication.successes,",
        ",d_fault.injections,", ",d_pipeline.cycles,",
        ",d_pipeline.committed,", ",d_l1i.hits,", ",d_l2.writebacks,",
        ",d_branch.btb_misses,", ",dl1.resident_replicas"}) {
    EXPECT_NE(header.find(column), std::string::npos) << column;
  }
  EXPECT_EQ(header.find(",d_rcache."), std::string::npos)
      << "no R-Cache is attached";
}

// Every counter has one name, and the registry and counter_vector derive
// from the same tables: each registry counter that counter_names() lists
// ends the run at the value counter_vector holds at that index.
TEST(Observability, RegistryCountersMatchCounterVector) {
  const std::vector<std::string> names = sim::counter_names();
  EXPECT_EQ(names.size(), 75u);
  EXPECT_EQ(names.size(), sim::counter_vector(sim::RunResult{}).size());
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(index.emplace(names[i], i).second) << "duplicate " << names[i];
  }

  sim::SimConfig config = sim::SimConfig::table1();
  config.fault_probability = 1e-4;
  config.rcache_entries = 64;
  sim::Simulator simulator(config, core::Scheme::IcrPPS_S(),
                           trace::profile_for(trace::App::kGzip));
  obs::ObsOptions options;
  options.stats_interval = 10000;
  simulator.enable_observability(options);
  const std::vector<std::uint64_t> want =
      sim::counter_vector(simulator.run(30000));

  const obs::IntervalSeries& series =
      simulator.collect_observability().intervals;
  const std::vector<std::uint64_t>& got = series.samples.back().counters;
  std::size_t matched = 0;
  for (std::size_t c = 0; c < series.counter_names.size(); ++c) {
    const std::string& name = series.counter_names[c];
    const auto it = index.find(name);
    if (it == index.end()) {
      EXPECT_EQ(name.rfind("dbp.", 0), 0u) << name;  // not in a RunResult
      continue;
    }
    ++matched;
    EXPECT_EQ(got[c], want[it->second]) << name;
  }
  // dl1 33, fault 7, pipeline 10, l1i 5, l2 5, branch 3, rcache 4.
  EXPECT_EQ(matched, 67u);
  EXPECT_GT(want[index.at("fault.injections")], 0u);
  EXPECT_GT(want[index.at("rcache.writes")], 0u);
}

}  // namespace
}  // namespace icr
