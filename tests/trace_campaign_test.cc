// Trace-driven campaigns: replay bit-identity against the generator, the
// interval-shard decomposition, config-hash provenance, the manifest trace
// block, and farm exports byte-identical to an in-process run.
#include "src/sim/campaign.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/farm.h"
#include "src/sim/results_io.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"
#include "src/util/fs.h"

namespace icr::sim {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string make_temp_spool() {
  char tmpl[] = "/tmp/icr_trace_campaign_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir) + "/spool";
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

TEST(TraceCampaign, ManifestCarriesTheTraceBlock) {
  const std::string path =
      record_fixture("manifest.icrt", trace::App::kVortex, 6000);
  CampaignSpec spec;
  spec.variants = {{"BaseP", core::Scheme::BaseP()},
                   {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()}};
  spec.trace.path = path;
  spec.trace.shard_instructions = 1500;
  spec.instructions = 6000;
  spec.derive_seeds = true;
  spec.base_seed = 0xABCD1234ULL;
  resolve_trace_campaign(spec);

  const farm::Manifest manifest = farm::manifest_for(spec, 3);
  EXPECT_EQ(manifest.app_count, 4u);  // 4 interval shards
  EXPECT_EQ(manifest.total_cells, 8u);

  const farm::Manifest parsed = farm::Manifest::parse(manifest.to_json());
  EXPECT_EQ(parsed.trace.path, spec.trace.path);
  EXPECT_EQ(parsed.trace.shard_instructions, spec.trace.shard_instructions);
  EXPECT_EQ(parsed.trace.fingerprint, spec.trace.fingerprint);
  EXPECT_EQ(parsed.trace.records, spec.trace.records);
  EXPECT_EQ(parsed.config_hash, manifest.config_hash);

  // The reconstructed spec reproduces the experiment fingerprint without
  // re-probing the file.
  const CampaignSpec rebuilt = farm::spec_from_manifest(parsed);
  EXPECT_EQ(campaign_config_hash(rebuilt), manifest.config_hash);

  // A synthetic manifest does not grow a trace block.
  CampaignSpec synthetic;
  synthetic.variants = spec.variants;
  synthetic.apps = {trace::App::kGzip};
  const farm::Manifest plain = farm::manifest_for(synthetic, 3);
  EXPECT_EQ(plain.to_json().find("\"trace\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceCampaign, FarmExportsByteIdenticalToInProcessRun) {
  const std::string path =
      record_fixture("farm.icrt", trace::App::kGcc, 8000);
  CampaignSpec spec;
  spec.variants = {{"BaseP", core::Scheme::BaseP()},
                   {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()}};
  spec.trace.path = path;
  spec.trace.shard_instructions = 2000;
  spec.instructions = 8000;
  spec.derive_seeds = true;
  spec.base_seed = 0x7C4CE5ULL;
  resolve_trace_campaign(spec);

  // Golden shape: the in-memory exporters over an in-process campaign.
  const CampaignResult campaign = CampaignRunner(1).run(spec);
  ASSERT_EQ(campaign.cells.size(), 8u);  // 2 schemes x 4 shards
  const std::string want_csv = to_csv(campaign);
  const std::string want_json = to_json(campaign, /*include_timing=*/false);
  EXPECT_NE(want_csv.find("farm.icrt@2000+2000"), std::string::npos);

  // Farm runs at two different (unit, worker) decompositions.
  for (const auto& shape : {std::pair<std::uint64_t, unsigned>{3, 1},
                            std::pair<std::uint64_t, unsigned>{2, 4}}) {
    const std::string spool = make_temp_spool();
    const farm::Manifest manifest = farm::manifest_for(spec, shape.first);
    farm::init_spool(spool, manifest);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < shape.second; ++w) {
      workers.emplace_back(
          [&] { (void)farm::run_worker_loop(spool, spec); });
    }
    for (std::thread& t : workers) t.join();

    std::ostringstream csv_out, json_out;
    farm::FarmAggregator aggregator(manifest, &csv_out, &json_out);
    for (std::uint32_t u = 0; u < manifest.unit_count; ++u) {
      aggregator.add_unit(
          u, farm::parse_unit_json(
                 util::fs::read_text_file(farm::unit_path(spool, u)), u));
    }
    aggregator.finish();
    EXPECT_EQ(csv_out.str(), want_csv)
        << "unit_cells=" << shape.first << " workers=" << shape.second;
    EXPECT_EQ(json_out.str(), want_json);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace icr::sim
