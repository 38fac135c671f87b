// Tier-1 contracts of checkpointed warmup + interval sampling
// (src/sim/sampling.h): window plans are well-formed, disabled sampling is
// an exact passthrough, full-coverage sampling is bit-identical to an
// unsampled run, sampled campaigns stay deterministic across thread counts,
// and provenance/config-hash plumbing only engages when sampling does.
#include "src/sim/sampling.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/campaign.h"
#include "src/sim/results_io.h"
#include "src/sim/simulator.h"
#include "tests/detailed_work.h"

namespace icr::sim {
namespace {

SimConfig test_config() {
  SimConfig config = SimConfig::table1();
  config.fault_model = fault::FaultModel::kRandom;
  config.fault_probability = 1e-4;
  return config;
}

Simulator make_sim(const SimConfig& config) {
  return Simulator(config, core::Scheme::IcrPPS_S(),
                   trace::profile_for(trace::App::kGzip));
}

void expect_same_result(const RunResult& a, const RunResult& b,
                        const char* what) {
  const std::vector<std::uint64_t> ca = counter_vector(a);
  const std::vector<std::uint64_t> cb = counter_vector(b);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], cb[i]) << what << ": counter " << i;
  }
  const std::vector<double> ma = metric_values(a);
  const std::vector<double> mb = metric_values(b);
  for (std::size_t m = 0; m < ma.size(); ++m) {
    EXPECT_EQ(ma[m], mb[m]) << what << ": metric " << metric_columns()[m];
  }
  EXPECT_EQ(a.energy.total_nj(), b.energy.total_nj()) << what;
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.app, b.app);
}

TEST(PlanWindows, SystematicPlanIsSortedDisjointAndPartitionsBudget) {
  SamplingOptions options;
  options.warmup_instructions = 10000;
  options.windows = 8;
  options.window_width = 2000;
  const std::uint64_t budget = 100000;
  const std::vector<SampleWindow> plan = plan_windows(budget, options);
  ASSERT_EQ(plan.size(), 8u);
  std::uint64_t span_sum = 0;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    EXPECT_GE(plan[j].begin, options.warmup_instructions);
    EXPECT_LE(plan[j].end, budget);
    EXPECT_EQ(plan[j].width(), 2000u);
    if (j > 0) {
      EXPECT_GE(plan[j].begin, plan[j - 1].end);
    }
    span_sum += plan[j].span;
  }
  EXPECT_EQ(span_sum, budget);
}

TEST(PlanWindows, WarmupOnlyIsOneWindowToTheEnd) {
  SamplingOptions options;
  options.warmup_instructions = 30000;
  const std::vector<SampleWindow> plan = plan_windows(100000, options);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].begin, 30000u);
  EXPECT_EQ(plan[0].end, 100000u);
  EXPECT_EQ(plan[0].span, 100000u);
}

TEST(PlanWindows, OversizedWarmupStillLeavesAMeasurableWindow) {
  SamplingOptions options;
  options.warmup_instructions = 1 << 20;  // larger than the budget
  options.windows = 4;
  const std::uint64_t budget = 10000;
  const std::vector<SampleWindow> plan = plan_windows(budget, options);
  ASSERT_FALSE(plan.empty());
  std::uint64_t span_sum = 0;
  for (const SampleWindow& w : plan) {
    EXPECT_GE(w.width(), std::min(budget, kMinWindowWidth));
    EXPECT_LE(w.end, budget);
    span_sum += w.span;
  }
  EXPECT_EQ(span_sum, budget);
}

TEST(PlanWindows, RequestThatCannotFitDropsWindowsNotWidth) {
  SamplingOptions options;
  options.warmup_instructions = 0;
  options.windows = 100;
  options.window_width = 5000;
  // Only 4 windows of 5000 fit in 20000.
  const std::vector<SampleWindow> plan = plan_windows(20000, options);
  ASSERT_EQ(plan.size(), 4u);
  for (const SampleWindow& w : plan) EXPECT_EQ(w.width(), 5000u);
}

TEST(Sampling, DisabledControllerIsExactPassthrough) {
  const SimConfig config = test_config();
  Simulator plain = make_sim(config);
  const RunResult expected = plain.run(50000);

  Simulator sampled_sim = make_sim(config);
  SamplingOptions options;  // enabled() == false
  const SampledRunResult sampled =
      SamplingController(sampled_sim, options).run(50000);
  EXPECT_FALSE(sampled.provenance.sampled);
  EXPECT_EQ(sampled.provenance.measured_instructions, 50000u);
  expect_same_result(expected, sampled.estimate, "disabled passthrough");
}

TEST(Sampling, FullCoverageWindowIsBitIdenticalToPlainRun) {
  const SimConfig config = test_config();
  Simulator plain = make_sim(config);
  const RunResult expected = plain.run(50000);

  Simulator sampled_sim = make_sim(config);
  SamplingOptions options;
  options.windows = 1;
  options.window_width = 50000;  // one window spanning the whole budget
  const SampledRunResult sampled =
      SamplingController(sampled_sim, options).run(50000);
  EXPECT_TRUE(sampled.provenance.sampled);
  EXPECT_EQ(sampled.provenance.windows, 1u);
  ASSERT_EQ(sampled.windows.size(), 1u);
  EXPECT_EQ(sampled.windows[0].span, 50000u);
  expect_same_result(expected, sampled.estimate, "full-coverage window");
}

TEST(Sampling, WarmupRunMeasuresLessButCoversTheBudget) {
  // Fault-free config: with no injector, a fast-forwarded run must never
  // corrupt architectural state (every load still verifies against golden
  // memory). Under injection, silent corruption is a legitimate outcome.
  Simulator sim = make_sim(SimConfig::table1());
  SamplingOptions options;
  options.warmup_instructions = 20000;
  const SampledRunResult sampled = SamplingController(sim, options).run(60000);
  EXPECT_TRUE(sampled.provenance.sampled);
  EXPECT_EQ(sampled.provenance.warmup_instructions, 20000u);
  EXPECT_EQ(sampled.provenance.windows, 1u);
  EXPECT_EQ(sampled.provenance.budget, 60000u);
  // ~40k of 60k measured in the detailed model.
  EXPECT_LT(sampled.provenance.measured_instructions, 45000u);
  EXPECT_GT(sampled.provenance.measured_instructions, 35000u);
  // The estimate is scaled back up to the full budget, and fast-forwarded
  // loads still verify against golden memory: no integrity regressions.
  EXPECT_NEAR(static_cast<double>(sampled.estimate.instructions), 60000.0,
              60000.0 * 0.02);
  EXPECT_EQ(sampled.estimate.pipeline.silent_corrupt_loads, 0u);
  EXPECT_GT(sampled.estimate.dl1.loads, 0u);
  EXPECT_GT(sampled.estimate.cycles, 0u);
}

TEST(Sampling, IntervalSamplingMeasuresRequestedWindows) {
  Simulator sim = make_sim(test_config());
  SamplingOptions options;
  options.warmup_instructions = 10000;
  options.windows = 5;
  options.window_width = 2000;
  const SampledRunResult sampled = SamplingController(sim, options).run(100000);
  EXPECT_EQ(sampled.provenance.windows, 5u);
  // 5 x 2000 planned; drain overshoot may add a few instructions per window.
  EXPECT_GE(sampled.provenance.measured_instructions, 10000u);
  EXPECT_LT(sampled.provenance.measured_instructions, 11000u);
  EXPECT_NEAR(sampled.provenance.coverage(), 0.1, 0.01);
  // The simulator really advanced through the whole budget.
  EXPECT_GE(sim.result().instructions, 100000u);
}

// Short copy of the tier-2 SamplingAccuracy detailed-work check, so every
// change runs it: at 20% coverage a sampled mcf (CPI ~14) and gcc (CPI
// ~1.7) cell do 20% of the full run's detailed instructions and cycles.
TEST(Sampling, SampledRunDoesOnlyItsShareOfDetailedWork) {
  constexpr std::uint64_t kBudget = 50000;
  constexpr std::uint64_t kWidth = 1000;
  constexpr double kCyclesTolerance = 0.15;  // as in the tier-2 harness
  SamplingOptions options;
  options.warmup_instructions = 5000;
  options.windows = 10;
  options.window_width = kWidth;
  for (const trace::App app : {trace::App::kMcf, trace::App::kGcc}) {
    const auto sim_for = [&] {
      return Simulator(test_config(), core::Scheme::IcrPPS_S(),
                       trace::profile_for(app));
    };
    Simulator full = sim_for();
    const RunResult reference = full.run(kBudget);
    Simulator sampled_sim = sim_for();
    const SampledRunResult sampled =
        SamplingController(sampled_sim, options).run(kBudget);
    EXPECT_NEAR(sampled.provenance.coverage(), 0.2, 0.02);
    test::expect_detailed_share(sampled,
                                sampled_sim.pipeline().detailed_cycles(),
                                reference, kWidth, kCyclesTolerance,
                                trace::to_string(app));
  }
}

TEST(Sampling, ObservabilityIntervalsStayStrictlyIncreasing) {
  Simulator sim = make_sim(test_config());
  obs::ObsOptions obsopt;
  obsopt.stats_interval = 5000;
  sim.enable_observability(obsopt);
  SamplingOptions options;
  options.warmup_instructions = 12000;
  options.windows = 3;
  options.window_width = 4000;
  (void)SamplingController(sim, options).run(60000);
  const obs::CellObservability telemetry = sim.collect_observability();
  ASSERT_GT(telemetry.intervals.samples.size(), 2u);
  // Window/chunk boundaries must never produce duplicate or out-of-order
  // progress points (zero-length intervals poison per-interval rates).
  for (std::size_t i = 1; i < telemetry.intervals.samples.size(); ++i) {
    EXPECT_GT(telemetry.intervals.samples[i].instructions,
              telemetry.intervals.samples[i - 1].instructions);
  }
}

CampaignSpec sampled_spec(SampleMode mode) {
  CampaignSpec spec;
  spec.variants = {
      {"BaseP", core::Scheme::BaseP()},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
  };
  spec.apps = {trace::App::kGzip, trace::App::kMcf};
  spec.instructions = 30000;
  spec.trials = 2;
  spec.derive_seeds = true;
  spec.base_seed = 0xD5DB2003ULL;
  spec.config.fault_probability = 1e-4;
  spec.sampling.warmup_instructions = 5000;
  spec.sampling.windows = 4;
  spec.sampling.window_width = 1500;
  spec.sampling.mode = mode;
  return spec;
}

TEST(Sampling, SampledCampaignBitIdenticalAcrossThreadCounts) {
  for (const SampleMode mode :
       {SampleMode::kSystematic, SampleMode::kRandom}) {
    const CampaignSpec spec = sampled_spec(mode);
    const CampaignResult one = CampaignRunner(1).run(spec);
    const CampaignResult eight = CampaignRunner(8).run(spec);
    ASSERT_EQ(one.cells.size(), spec.cell_count());
    EXPECT_EQ(to_json(one, /*include_timing=*/false),
              to_json(eight, /*include_timing=*/false));
    EXPECT_EQ(to_csv(one), to_csv(eight));
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      EXPECT_TRUE(one.cells[i].sampling.sampled);
      EXPECT_EQ(one.cells[i].sampling.measured_instructions,
                eight.cells[i].sampling.measured_instructions);
    }
  }
}

TEST(Sampling, ConfigHashFoldsOnlyWhenEnabled) {
  CampaignSpec spec = sampled_spec(SampleMode::kSystematic);
  CampaignSpec disabled = spec;
  disabled.sampling = SamplingOptions{};
  CampaignSpec no_field = spec;
  no_field.sampling = SamplingOptions{};
  // Disabled sampling hashes identically to a spec that never touched the
  // field — old fingerprints stay valid.
  EXPECT_EQ(campaign_config_hash(disabled), campaign_config_hash(no_field));
  EXPECT_NE(campaign_config_hash(spec), campaign_config_hash(disabled));
  // Every sampling knob fingerprints.
  CampaignSpec other = spec;
  other.sampling.windows += 1;
  EXPECT_NE(campaign_config_hash(spec), campaign_config_hash(other));
  other = spec;
  other.sampling.mode = SampleMode::kRandom;
  EXPECT_NE(campaign_config_hash(spec), campaign_config_hash(other));
}

TEST(Sampling, ExportsCarryProvenanceOnlyWhenSampled) {
  CampaignSpec spec = sampled_spec(SampleMode::kSystematic);
  spec.variants.resize(1);
  spec.apps.resize(1);
  spec.trials = 1;
  const CampaignResult sampled = CampaignRunner(1).run(spec);
  const std::string sampled_csv = to_csv(sampled);
  const std::string sampled_json = to_json(sampled, false);
  EXPECT_NE(sampled_csv.find("sampled,warmup,sample_windows"),
            std::string::npos);
  EXPECT_NE(sampled_json.find("\"sampling\""), std::string::npos);

  spec.sampling = SamplingOptions{};
  const CampaignResult full = CampaignRunner(1).run(spec);
  const std::string full_csv = to_csv(full);
  // Unsampled campaigns keep the historical schema byte for byte.
  EXPECT_EQ(full_csv.find("sampled"), std::string::npos);
  EXPECT_EQ(to_json(full, false).find("\"sampling\""), std::string::npos);
  std::string header = full_csv.substr(0, full_csv.find('\n'));
  std::string expected_header = "variant,app,trial,seed";
  for (const std::string& column : metric_columns()) {
    expected_header += ',' + column;
  }
  EXPECT_EQ(header, expected_header);
}

TEST(Sampling, BackToBackControllerRunsResumeAtBudgetBoundaries) {
  Simulator sim = make_sim(test_config());
  SamplingOptions options;
  options.warmup_instructions = 5000;
  options.windows = 2;
  options.window_width = 1000;
  SamplingController controller(sim, options);
  (void)controller.run(20000);
  const std::uint64_t after_first = sim.result().instructions;
  EXPECT_GE(after_first, 20000u);
  const SampledRunResult second = controller.run(20000);
  // The second run planned relative to where the first left off.
  EXPECT_GE(sim.result().instructions, 40000u);
  EXPECT_EQ(second.provenance.windows, 2u);
}

}  // namespace
}  // namespace icr::sim
