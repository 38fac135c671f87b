// Tier-1 contract of the shared command-line layer (src/sim/cli.h): the
// checked number parser every numeric flag goes through, the size and
// way-pattern helpers, the RunFlags both front-ends share, and the
// unknown-flag exit.
#include "src/sim/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

namespace icr::sim::cli {
namespace {

TEST(CliNumbers, CountsAreWholeDecimalNumbers) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("1000000"), 1000000u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12abc", "1e3", "0x10",
                          "18446744073709551616", "abc"}) {
    EXPECT_EQ(parse_u64(bad), std::nullopt) << bad;
  }
  EXPECT_EQ(parse_u32("4294967295"), UINT32_MAX);
  EXPECT_EQ(parse_u32("4294967296"), std::nullopt);
  EXPECT_EQ(parse_u32("-1"), std::nullopt);
}

TEST(CliNumbers, SeedsAndMasksAcceptHexAndOctal) {
  EXPECT_EQ(parse_u64("0x1C9CA37", 0), 0x1C9CA37u);
  EXPECT_EQ(parse_u64("0X1f", 0), 0x1Fu);
  EXPECT_EQ(parse_u64("010", 0), 8u);
  EXPECT_EQ(parse_u64("42", 0), 42u);
  EXPECT_EQ(parse_u32("0xF", 0), 0xFu);
  for (const char* bad : {"0x", "0x1g", "-0x1", "0x10000000000000000"}) {
    EXPECT_EQ(parse_u64(bad, 0), std::nullopt) << bad;
  }
  EXPECT_EQ(parse_u32("0x100000000", 0), std::nullopt);
}

TEST(CliNumbers, DoublesParseCompletelyAndStayFinite) {
  EXPECT_EQ(parse_double("1e-4"), 1e-4);
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_EQ(parse_double("5"), 5.0);
  for (const char* bad : {"", " 1", "1s", "nan", "inf", "-inf", "1e999",
                          "abc", "1e"}) {
    EXPECT_EQ(parse_double(bad), std::nullopt) << bad;
  }
}

TEST(CliNumbers, SizesTakeKAndMSuffixes) {
  EXPECT_EQ(parse_size("8192"), 8192u);
  EXPECT_EQ(parse_size("8K"), 8192u);
  EXPECT_EQ(parse_size("16k"), 16384u);
  EXPECT_EQ(parse_size("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(parse_size("4095M"), 4095u * 1024 * 1024);
  for (const char* bad : {"", "K", "8KB", "8Q", "-8K", "4096M", "4194304K"}) {
    EXPECT_EQ(parse_size(bad), std::nullopt) << bad;
  }
}

TEST(CliNumbers, BadFlagValueExitsTwoNamingToolFlagAndValue) {
  std::uint32_t trials = 1;
  EXPECT_EXIT(number_flag("run_campaign", "--trials=-1", "--trials", trials),
              testing::ExitedWithCode(2),
              "run_campaign: bad value '-1' for --trials");
  std::uint64_t instructions = 0;
  EXPECT_EXIT(
      number_flag("icr_sim", "--instructions=12abc", "--instructions",
                  instructions),
      testing::ExitedWithCode(2),
      "icr_sim: bad value '12abc' for --instructions");
  EXPECT_TRUE(number_flag("icr_sim", "--instructions=12", "--instructions",
                          instructions));
  EXPECT_EQ(instructions, 12u);
  EXPECT_FALSE(number_flag("icr_sim", "--instructionsx=1", "--instructions",
                           instructions));
  double probability = 0.0;
  EXPECT_TRUE(number_flag("icr_sim", "--fault-prob=1e-3", "--fault-prob",
                          probability));
  EXPECT_EQ(probability, 1e-3);
}

TEST(CliWayPattern, NamesRoundTripAndUnknownExits) {
  using P = mem::WayDisableConfig::Pattern;
  EXPECT_EQ(way_pattern_by_name("fixed"), P::kFixed);
  EXPECT_EQ(way_pattern_by_name("random"), P::kRandom);
  EXPECT_EXIT((void)way_pattern_by_name("scattered"),
              testing::ExitedWithCode(2),
              "bad --way-pattern 'scattered' \\(fixed\\|random\\)");
}

TEST(CliRunFlags, ParsesTheSharedFlagsOnly) {
  RunFlags flags("icr_sim");
  for (const char* arg :
       {"--instructions=5000", "--window=100", "--fault-model=column",
        "--fault-prob=1e-4", "--warmup=200", "--sample-windows=3",
        "--sample-width=64", "--sample-mode=random", "--sample-seed=0x10",
        "--way-pattern=random", "--way-seed=7", "--heatmap-out=hm.csv",
        "--trace-out=t.ndjson", "--trace-filter=fault", "--rel",
        "--prof-out=p.json"}) {
    EXPECT_TRUE(flags.parse(arg)) << arg;
  }
  for (const char* arg : {"--app=gcc", "--trials=2", "--csv", "--relx",
                          "--instructions", "--rel-out=r.json",
                          "--serve=0"}) {
    EXPECT_FALSE(flags.parse(arg)) << arg;
  }
  EXPECT_EQ(flags.instructions, 5000u);
  EXPECT_EQ(flags.window, 100u);
  EXPECT_EQ(flags.fault_model, "column");
  EXPECT_EQ(flags.fault_prob, 1e-4);
  EXPECT_EQ(flags.way_pattern, "random");
  EXPECT_EQ(flags.way_seed, 7u);
  EXPECT_TRUE(flags.rel);
  EXPECT_TRUE(flags.prof);  // --prof-out implies --prof
  EXPECT_EQ(flags.prof_out, "p.json");

  const SamplingOptions sampling = flags.sampling();
  EXPECT_EQ(sampling.warmup_instructions, 200u);
  EXPECT_EQ(sampling.windows, 3u);
  EXPECT_EQ(sampling.window_width, 64u);
  EXPECT_EQ(sampling.mode, SampleMode::kRandom);
  EXPECT_EQ(sampling.seed, 0x10u);

  // A heatmap output without --stats-interval samples at the default.
  const obs::ObsOptions options = flags.obs();
  EXPECT_EQ(options.stats_interval, obs::kDefaultStatsInterval);
  EXPECT_EQ(options.trace_categories, obs::parse_category_list("fault"));
}

TEST(CliRunFlags, ObsIsOffUnlessAnOutputAsks) {
  RunFlags flags("run_campaign");
  EXPECT_FALSE(flags.obs().any());
  EXPECT_FALSE(flags.sampling().enabled());
  ASSERT_TRUE(flags.parse("--stats-interval=500"));
  EXPECT_EQ(flags.obs().stats_interval, 500u);
  EXPECT_EQ(flags.obs().trace_categories, 0u);  // no --trace-out
}

TEST(CliRunFlags, BadTraceFilterAndSampleModeExitTwo) {
  RunFlags filter("icr_sim");
  ASSERT_TRUE(filter.parse("--trace-out=t.ndjson"));
  ASSERT_TRUE(filter.parse("--trace-filter=nope"));
  EXPECT_EXIT((void)filter.obs(), testing::ExitedWithCode(2),
              "bad --trace-filter 'nope'");
  RunFlags mode("icr_sim");
  ASSERT_TRUE(mode.parse("--sample-mode=nope"));
  EXPECT_EXIT((void)mode.sampling(), testing::ExitedWithCode(2),
              "unknown sample mode 'nope'");
  RunFlags number("run_campaign");
  EXPECT_EXIT((void)number.parse("--sample-windows=-3"),
              testing::ExitedWithCode(2),
              "run_campaign: bad value '-3' for --sample-windows");
}

TEST(Cli, UnknownFlagHelperExitsWithUsageHint) {
  // The shared rejection path every CLI binary (tools + benches) routes
  // unknown "--" flags through: non-zero exit plus a --help pointer.
  EXPECT_EXIT(unknown_flag("cli_test", "--bogus-flag"),
              testing::ExitedWithCode(2), "unknown flag '--bogus-flag'");
}

}  // namespace
}  // namespace icr::sim::cli
