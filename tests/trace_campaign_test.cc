// Trace-driven campaigns: replay bit-identity against the generator, the
// interval-shard decomposition, config-hash provenance, and exports
// byte-identical across thread counts.
#include "src/sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/sim/results_io.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"

namespace icr::sim {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Records `records` instructions of a synthetic app into a v2 container.
std::string record_fixture(const char* name, trace::App app,
                           std::uint64_t records) {
  const std::string path = temp_path(name);
  trace::SyntheticWorkload source(trace::profile_for(app));
  trace::record_trace_v2(source, records, path);
  return path;
}

TEST(TraceReplay, ReproducesTheGeneratorRunBitForBit) {
  // The OoO pipeline fetches ahead of the commit target, so the trace must
  // carry a margin of records beyond the replayed instruction count —
  // otherwise in-flight fetches wrap to the trace start (docs/TRACES.md).
  const std::uint64_t kRun = 20000;
  const std::string path =
      record_fixture("replay_fixture.icrt", trace::App::kGzip, kRun + 2000);

  const SimConfig config = SimConfig::table1();
  const core::Scheme scheme = core::Scheme::IcrPPS_S();

  Simulator generator(config, scheme, trace::profile_for(trace::App::kGzip));
  const RunResult want = generator.run(kRun);

  Simulator replay(config, scheme,
                   std::make_unique<trace::StreamingTraceSource>(path), "gzip");
  const RunResult got = replay.run(kRun);

  // Every cumulative counter — cache, pipeline, branch, fault, energy
  // events — must match exactly, not approximately.
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(counter_vector(got), counter_vector(want));
  std::remove(path.c_str());
}

TEST(TraceCampaign, ShardDecompositionCoversTheBudgetExactly) {
  const std::string path =
      record_fixture("shards.icrt", trace::App::kMcf, 10000);
  CampaignSpec spec;
  spec.variants = {{"BaseP", core::Scheme::BaseP()}};
  spec.trace.path = path;
  spec.trace.shard_instructions = 3000;
  spec.instructions = 10000;
  resolve_trace_campaign(spec);
  EXPECT_EQ(spec.trace.records, 10000u);
  EXPECT_NE(spec.trace.fingerprint, 0u);

  // ceil(10000 / 3000) = 4 shards; the tail shard is short.
  ASSERT_EQ(trace_shard_count(spec), 4u);
  ASSERT_EQ(spec.app_axis(), 4u);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const TraceShard shard = trace_shard(spec, i);
    EXPECT_EQ(shard.begin, covered);
    covered += shard.instructions;
  }
  EXPECT_EQ(covered, 10000u);
  EXPECT_EQ(trace_shard(spec, 3).instructions, 1000u);

  // Labels are deterministic, comma-free (CSV-safe), and distinct.
  EXPECT_EQ(trace_shard_label(spec, 0), "shards.icrt@0+3000");
  EXPECT_EQ(trace_shard_label(spec, 3), "shards.icrt@9000+1000");

  // shard_instructions == 0: one cell covering the whole budget.
  CampaignSpec whole = spec;
  whole.trace.shard_instructions = 0;
  EXPECT_EQ(trace_shard_count(whole), 1u);
  EXPECT_EQ(trace_shard(whole, 0).instructions, 10000u);
  std::remove(path.c_str());
}

TEST(TraceCampaign, ConfigHashTracksContentNotPath) {
  const std::string path =
      record_fixture("hash.icrt", trace::App::kVpr, 5000);
  CampaignSpec spec;
  spec.variants = {{"BaseP", core::Scheme::BaseP()}};
  spec.trace.path = path;
  spec.trace.shard_instructions = 1000;
  spec.instructions = 5000;
  resolve_trace_campaign(spec);
  const std::uint64_t base = campaign_config_hash(spec);

  // A synthetic campaign with the same variants hashes differently.
  CampaignSpec synthetic;
  synthetic.variants = spec.variants;
  synthetic.apps = {trace::App::kVpr};
  synthetic.instructions = 5000;
  EXPECT_NE(campaign_config_hash(synthetic), base);

  // Moving the file does not change the experiment...
  CampaignSpec moved = spec;
  moved.trace.path = "/elsewhere/hash.icrt";
  EXPECT_EQ(campaign_config_hash(moved), base);

  // ...but different content or a different decomposition does.
  CampaignSpec other_content = spec;
  other_content.trace.fingerprint ^= 1;
  EXPECT_NE(campaign_config_hash(other_content), base);
  CampaignSpec other_shards = spec;
  other_shards.trace.shard_instructions = 2500;
  EXPECT_NE(campaign_config_hash(other_shards), base);
  std::remove(path.c_str());
}

TEST(TraceCampaign, ModifiedTraceFileFailsTheFingerprintCheck) {
  const std::string path =
      record_fixture("tamper.icrt", trace::App::kParser, 4000);
  CampaignSpec spec;
  spec.variants = {{"BaseP", core::Scheme::BaseP()}};
  spec.trace.path = path;
  spec.instructions = 2000;
  resolve_trace_campaign(spec);

  // Replace the file with different content (same path, same length
  // class). The planned fingerprint no longer matches.
  {
    trace::WorkloadProfile profile = trace::profile_for(trace::App::kParser);
    profile.seed ^= 0xDEADULL;
    trace::SyntheticWorkload other(profile);
    trace::record_trace_v2(other, 4000, path);
  }
  try {
    (void)run_campaign_cell(spec, 0, 0, 0, 2000);
    FAIL() << "tampered trace ran anyway";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(TraceCampaign, ExportsByteIdenticalAcrossThreadCounts) {
  const std::string path =
      record_fixture("threads.icrt", trace::App::kGcc, 8000);
  CampaignSpec spec;
  spec.variants = {{"BaseP", core::Scheme::BaseP()},
                   {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()}};
  spec.trace.path = path;
  spec.trace.shard_instructions = 2000;
  spec.instructions = 8000;
  spec.derive_seeds = true;
  spec.base_seed = 0x7C4CE5ULL;
  resolve_trace_campaign(spec);

  const CampaignResult one = CampaignRunner(1).run(spec);
  ASSERT_EQ(one.cells.size(), 8u);  // 2 schemes x 4 shards
  const std::string want_csv = to_csv(one);
  const std::string want_json = to_json(one, /*include_timing=*/false);
  EXPECT_NE(want_csv.find("threads.icrt@2000+2000"), std::string::npos);

  const CampaignResult three = CampaignRunner(3).run(spec);
  EXPECT_EQ(three.meta.threads, 3u);
  EXPECT_EQ(to_csv(three), want_csv);
  EXPECT_EQ(to_json(three, /*include_timing=*/false), want_json);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace icr::sim
