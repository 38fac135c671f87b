#include "src/sim/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace icr::sim {
namespace {

TEST(Experiment, RunOneFillsLabels) {
  const RunResult r = run_one(trace::App::kMesa, core::Scheme::BaseP(),
                              SimConfig::table1(), 20000);
  EXPECT_EQ(r.app, "mesa");
  EXPECT_EQ(r.scheme, "BaseP");
  EXPECT_GE(r.instructions, 20000u);
}

TEST(Experiment, RunMatrixShape) {
  const std::vector<SchemeVariant> variants = {
      {"a", core::Scheme::BaseP()},
      {"b", core::Scheme::IcrPPS_S()},
  };
  const std::vector<trace::App> apps = {trace::App::kGzip, trace::App::kVpr,
                                        trace::App::kMcf};
  const auto m = run_matrix(variants, apps, SimConfig::table1(), 15000);
  ASSERT_EQ(m.size(), 2u);
  ASSERT_EQ(m[0].size(), 3u);
  EXPECT_EQ(m[0][0].scheme, "a");
  EXPECT_EQ(m[1][2].scheme, "b");
  EXPECT_EQ(m[1][2].app, "mcf");
}

TEST(Experiment, NormalizedMetrics) {
  RunResult a, b;
  a.cycles = 150;
  b.cycles = 100;
  EXPECT_DOUBLE_EQ(normalized_cycles(a, b), 1.5);
  a.energy.l1_nj = 30;
  b.energy.l1_nj = 10;
  EXPECT_DOUBLE_EQ(normalized_energy(a, b), 3.0);
}

TEST(Experiment, MeanHelper) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
}

TEST(Experiment, InstructionCountEnvOverride) {
  setenv("ICR_SIM_INSTRUCTIONS", "12345", 1);
  EXPECT_EQ(default_instruction_count(), 12345u);
  setenv("ICR_SIM_INSTRUCTIONS", "junk", 1);
  EXPECT_EQ(default_instruction_count(), 1'000'000u);
  // Only a whole positive number overrides: no numeric prefix, no sign.
  setenv("ICR_SIM_INSTRUCTIONS", "12abc", 1);
  EXPECT_EQ(default_instruction_count(), 1'000'000u);
  setenv("ICR_SIM_INSTRUCTIONS", "-5", 1);
  EXPECT_EQ(default_instruction_count(), 1'000'000u);
  unsetenv("ICR_SIM_INSTRUCTIONS");
  EXPECT_EQ(default_instruction_count(), 1'000'000u);
}

}  // namespace
}  // namespace icr::sim
