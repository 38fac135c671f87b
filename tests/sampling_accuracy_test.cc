// Tier-2 sampled-vs-full accuracy harness: for a grid of paper schemes x
// applications, warmup + interval-sampled estimates must land within
// stated relative-error bounds of the full detailed run for the headline
// metrics (dL1 miss rate, replication coverage, energy, cycles), and the
// per-app dL1 miss-rate ranking of the schemes must be preserved exactly —
// a sampled campaign has to reach the same qualitative conclusions as a
// full one. Each sampled run must also do only its coverage's share of the
// detailed work (detailed_work.h); the wall-time speed-up that follows is
// printed for information, not asserted.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "src/sim/sampling.h"
#include "src/sim/simulator.h"
#include "tests/detailed_work.h"

namespace icr::sim {
namespace {

constexpr std::uint64_t kBudget = 300000;
constexpr std::uint64_t kWarmup = 30000;
constexpr std::uint32_t kWindows = 10;
constexpr std::uint64_t kWindowWidth = 6000;  // 20% detailed coverage

// Error tolerances, relative to the full run. Rate-style metrics converge
// fastest; cycles carry the extra variance of the CPI-extrapolated
// fast-forward clock. Measured headroom is roughly 2x (see the printed
// table when running this suite with --gtest_also_run_disabled_tests off).
constexpr double kMissRateTolerance = 0.05;
constexpr double kCoverageTolerance = 0.10;
constexpr double kEnergyTolerance = 0.05;
constexpr double kCyclesTolerance = 0.15;

struct SchemePoint {
  const char* label;
  core::Scheme scheme;
};

std::vector<SchemePoint> schemes() {
  return {
      {"BaseP", core::Scheme::BaseP()},
      {"BaseECC", core::Scheme::BaseECC()},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
      {"ICR-ECC-PS(S)", core::Scheme::IcrEccPS_S()},
  };
}

std::vector<trace::App> apps() {
  return {trace::App::kGzip, trace::App::kVpr, trace::App::kMcf,
          trace::App::kVortex};
}

SimConfig accuracy_config() {
  SimConfig config = SimConfig::table1();
  config.fault_model = fault::FaultModel::kRandom;
  config.fault_probability = 1e-5;
  return config;
}

double relative_error(double estimate, double reference) {
  if (reference == 0.0) return estimate == 0.0 ? 0.0 : 1.0;
  return std::abs(estimate - reference) / std::abs(reference);
}

struct Comparison {
  RunResult full;
  RunResult sampled;
  double full_seconds = 0.0;
  double sampled_seconds = 0.0;
};

Comparison compare_one(const SchemePoint& point, trace::App app) {
  const SimConfig config = accuracy_config();
  Comparison out;

  const auto t0 = std::chrono::steady_clock::now();
  Simulator full(config, point.scheme, trace::profile_for(app));
  out.full = full.run(kBudget);
  const auto t1 = std::chrono::steady_clock::now();

  Simulator sampled_sim(config, point.scheme, trace::profile_for(app));
  SamplingOptions options;
  options.warmup_instructions = kWarmup;
  options.windows = kWindows;
  options.window_width = kWindowWidth;
  const SampledRunResult sampled =
      SamplingController(sampled_sim, options).run(kBudget);
  const auto t2 = std::chrono::steady_clock::now();
  test::expect_detailed_share(
      sampled, sampled_sim.pipeline().detailed_cycles(), out.full,
      kWindowWidth, kCyclesTolerance,
      std::string(point.label) + " on " + trace::to_string(app));

  out.sampled = sampled.estimate;
  out.full_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.sampled_seconds = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_TRUE(sampled.provenance.sampled);
  EXPECT_NEAR(sampled.provenance.coverage(), 0.2, 0.02);
  return out;
}

TEST(SamplingAccuracy, EstimatesWithinBoundsAndRankingPreserved) {
  const std::vector<SchemePoint> grid = schemes();
  const std::vector<trace::App> app_list = apps();

  double full_total = 0.0;
  double sampled_total = 0.0;
  std::printf("%-14s %-8s %10s %10s %10s %10s\n", "scheme", "app",
              "miss-err", "cov-err", "energy-err", "cycle-err");
  for (const trace::App app : app_list) {
    // Full-run and sampled dL1 miss rates per scheme, for ranking checks.
    std::vector<double> full_miss;
    std::vector<double> sampled_miss;
    for (const SchemePoint& point : grid) {
      const Comparison c = compare_one(point, app);
      full_total += c.full_seconds;
      sampled_total += c.sampled_seconds;

      const double miss_err =
          relative_error(c.sampled.dl1.miss_rate(), c.full.dl1.miss_rate());
      const double cov_err =
          relative_error(c.sampled.dl1.loads_with_replica_fraction(),
                         c.full.dl1.loads_with_replica_fraction());
      const double energy_err = relative_error(c.sampled.energy.total_nj(),
                                               c.full.energy.total_nj());
      const double cycle_err =
          relative_error(static_cast<double>(c.sampled.cycles),
                         static_cast<double>(c.full.cycles));
      std::printf("%-14s %-8s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n", point.label,
                  trace::to_string(app), 100.0 * miss_err, 100.0 * cov_err,
                  100.0 * energy_err, 100.0 * cycle_err);

      EXPECT_LE(miss_err, kMissRateTolerance)
          << point.label << " on " << trace::to_string(app);
      EXPECT_LE(cov_err, kCoverageTolerance)
          << point.label << " on " << trace::to_string(app);
      EXPECT_LE(energy_err, kEnergyTolerance)
          << point.label << " on " << trace::to_string(app);
      EXPECT_LE(cycle_err, kCyclesTolerance)
          << point.label << " on " << trace::to_string(app);
      // The estimate still covers the whole budget.
      EXPECT_NEAR(static_cast<double>(c.sampled.instructions),
                  static_cast<double>(kBudget), 0.02 * kBudget);

      full_miss.push_back(c.full.dl1.miss_rate());
      sampled_miss.push_back(c.sampled.dl1.miss_rate());
    }

    // Scheme ordering by dL1 miss rate must match the full run for every
    // distinguishable pair: the sampled campaign reaches the same
    // conclusions. Pairs the full run itself cannot separate (BaseP vs
    // BaseECC differ only in protection, so their miss rates are true
    // near-ties) carry no ordering information to preserve.
    for (std::size_t a = 0; a < grid.size(); ++a) {
      for (std::size_t b = a + 1; b < grid.size(); ++b) {
        const double gap = relative_error(full_miss[a], full_miss[b]);
        if (gap < 2.0 * kMissRateTolerance) continue;  // indistinguishable
        EXPECT_EQ(full_miss[a] < full_miss[b],
                  sampled_miss[a] < sampled_miss[b])
            << "dL1 miss-rate ordering of " << grid[a].label << " vs "
            << grid[b].label << " changed on " << trace::to_string(app);
      }
    }
  }

  const double speedup = sampled_total > 0.0 ? full_total / sampled_total : 0.0;
  // For information only: the speed-up is F/D-bound host time (see
  // docs/SAMPLING.md), too noisy to assert; the detailed-work share it
  // follows from is asserted per cell above.
  std::printf("wall time: full %.2fs, sampled %.2fs — %.1fx speedup at 20%% "
              "coverage\n", full_total, sampled_total, speedup);
}

}  // namespace
}  // namespace icr::sim
