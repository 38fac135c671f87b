// The shared throughput/ETA arithmetic (src/obs/throughput.h) now backs
// three surfaces — the campaign ProgressReporter, the farm coordinator's
// FarmProgressReporter, and farm_status — so its zero-guards and formatting
// get pinned down once, here, plus the reporter's pacing contract.
#include "src/obs/farm_progress.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "src/obs/throughput.h"

namespace icr::obs {
namespace {

TEST(Throughput, EstimatesRatePercentAndEta) {
  const Throughput t = estimate_throughput(25, 100, 5.0);
  EXPECT_DOUBLE_EQ(t.rate, 5.0);
  EXPECT_DOUBLE_EQ(t.percent, 25.0);
  ASSERT_TRUE(t.eta_known());
  EXPECT_DOUBLE_EQ(t.eta_seconds, 15.0);  // 75 remaining at 5/s
}

TEST(Throughput, GuardsDegenerateInputs) {
  // No time elapsed: no rate, no ETA — never a division by zero.
  const Throughput fresh = estimate_throughput(10, 100, 0.0);
  EXPECT_DOUBLE_EQ(fresh.rate, 0.0);
  EXPECT_FALSE(fresh.eta_known());

  const Throughput backwards = estimate_throughput(10, 100, -1.0);
  EXPECT_DOUBLE_EQ(backwards.rate, 0.0);
  EXPECT_FALSE(backwards.eta_known());

  // Empty grid reads as complete, not as 0/0.
  const Throughput empty = estimate_throughput(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(empty.percent, 100.0);

  // Nothing done yet: zero rate, unknown ETA.
  const Throughput idle = estimate_throughput(0, 100, 10.0);
  EXPECT_DOUBLE_EQ(idle.rate, 0.0);
  EXPECT_DOUBLE_EQ(idle.percent, 0.0);
  EXPECT_FALSE(idle.eta_known());

  // Overshoot (done > total, e.g. a recount mid-resume): ETA is unknown
  // rather than negative.
  const Throughput over = estimate_throughput(150, 100, 10.0);
  EXPECT_DOUBLE_EQ(over.rate, 15.0);
  EXPECT_FALSE(over.eta_known());
}

TEST(Throughput, SurvivesExtremeCounts) {
  // The fleet table and the --status-json NDJSON print this arithmetic
  // as is, so the extremes must stay finite.

  // Empty grid with work somehow done (a resume sweep recount): still
  // "complete", never a negative remaining count.
  const Throughput empty_done = estimate_throughput(3, 0, 2.0);
  EXPECT_DOUBLE_EQ(empty_done.percent, 100.0);
  EXPECT_FALSE(empty_done.eta_known());

  // Instruction-scale counts past 2^53 (where doubles lose integer
  // precision): rate, percent and ETA stay finite and non-negative.
  const std::uint64_t huge_total = (1ULL << 62) + 12345;
  const std::uint64_t huge_done = (1ULL << 61) + 999;
  const Throughput huge = estimate_throughput(huge_done, huge_total, 100.0);
  EXPECT_TRUE(std::isfinite(huge.rate));
  EXPECT_GT(huge.rate, 0.0);
  EXPECT_TRUE(std::isfinite(huge.percent));
  EXPECT_GE(huge.percent, 0.0);
  EXPECT_LE(huge.percent, 100.0);
  ASSERT_TRUE(huge.eta_known());
  EXPECT_TRUE(std::isfinite(huge.eta_seconds));
  EXPECT_NEAR(huge.percent, 50.0, 0.01);
  EXPECT_NEAR(huge.eta_seconds, 100.0, 0.01);

  // Done == total at huge scale reads as exactly complete.
  const Throughput full = estimate_throughput(huge_total, huge_total, 1.0);
  EXPECT_DOUBLE_EQ(full.percent, 100.0);
  ASSERT_TRUE(full.eta_known());
  EXPECT_DOUBLE_EQ(full.eta_seconds, 0.0);

  // MIPS at the same scale: finite, never negative.
  const double mips = simulated_mips(huge_done, 1, 100.0);
  EXPECT_TRUE(std::isfinite(mips));
  EXPECT_GT(mips, 0.0);
}

TEST(Throughput, FormatsEta) {
  Throughput t;
  t.eta_seconds = 42.4;
  EXPECT_EQ(format_eta(t), "ETA 42s");
  EXPECT_EQ(format_eta(t, /*final_line=*/true), "done");
  t.eta_seconds = -1.0;
  EXPECT_EQ(format_eta(t), "ETA --");
}

TEST(Throughput, SimulatedMipsIsZeroGuarded) {
  EXPECT_DOUBLE_EQ(simulated_mips(4, 20000, 2.0), 0.04);  // 80k insn / 2s
  EXPECT_DOUBLE_EQ(simulated_mips(4, 20000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(simulated_mips(0, 20000, 2.0), 0.0);
}

TEST(FarmProgressReporter, PrintsRateLimitedLinesToStderr) {
  FarmProgressOptions options;
  options.min_interval_seconds = 0.0;  // every poll may print
  FarmProgressReporter reporter(options, /*total_units=*/4,
                                /*total_cells=*/16);

  testing::internal::CaptureStderr();
  reporter.poll(1, 4, 2);
  const std::string line = testing::internal::GetCapturedStderr();
  EXPECT_NE(line.find("farm:"), std::string::npos);
  EXPECT_NE(line.find("1/4 units"), std::string::npos);
  EXPECT_NE(line.find("2 worker(s)"), std::string::npos);

  testing::internal::CaptureStderr();
  reporter.finish(4, 16);
  const std::string final_line = testing::internal::GetCapturedStderr();
  EXPECT_NE(final_line.find("4/4 units"), std::string::npos);
  EXPECT_NE(final_line.find("done"), std::string::npos);

  EXPECT_GE(reporter.elapsed_seconds(), 0.0);
}

TEST(FarmProgressReporter, PacingSuppressesBackToBackPolls) {
  FarmProgressOptions options;
  options.min_interval_seconds = 3600.0;  // nothing inside one test run
  FarmProgressReporter reporter(options, 4, 16);

  testing::internal::CaptureStderr();
  reporter.poll(1, 4, 2);
  reporter.poll(2, 8, 2);
  reporter.poll(3, 12, 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // finish() is unconditional even under pacing.
  testing::internal::CaptureStderr();
  reporter.finish(4, 16);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("done"),
            std::string::npos);
}

TEST(FarmProgressReporter, DisabledReporterIsSilent) {
  FarmProgressOptions options;
  options.enabled = false;
  options.min_interval_seconds = 0.0;
  FarmProgressReporter reporter(options, 4, 16);

  testing::internal::CaptureStderr();
  reporter.poll(1, 4, 2);
  reporter.finish(4, 16);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_GE(reporter.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace icr::obs
