// Tier-1 contract of the campaign farm: sharding is a partition, claims are
// exclusive, checkpoints round-trip exactly, the streaming aggregator emits
// the same bytes as the in-memory exporters at any worker count, and its
// state does not grow with the grid.
#include "src/sim/farm.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/campaign.h"
#include "src/sim/cli.h"
#include "src/sim/farm_telemetry.h"
#include "src/sim/results_io.h"
#include "src/util/fs.h"

namespace icr::sim::farm {
namespace {

// Fresh spool directory under the test's temp area.
std::string make_temp_spool() {
  char tmpl[] = "/tmp/icr_farm_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir) + "/spool";
}

// The campaign_test grid, shrunk a little so the multi-worker runs stay
// fast while still spanning several units.
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.variants = {
      {"BaseP", core::Scheme::BaseP()},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
  };
  spec.apps = {trace::App::kVortex, trace::App::kMcf};
  spec.instructions = 20000;
  spec.trials = 2;
  spec.derive_seeds = true;
  spec.base_seed = 0xD5DB2003ULL;
  spec.config.fault_model = fault::FaultModel::kRandom;
  spec.config.fault_probability = 1e-4;
  return spec;
}

TEST(FarmSharding, IsAPartitionOverRandomShapes) {
  // Property: for random grid sizes and unit sizes, every cell index in
  // [0, total) lands in exactly one unit, units are contiguous, in order,
  // and the unit count matches the ceiling division.
  std::mt19937_64 rng(0xFA53u);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t total = rng() % 5000;
    const std::uint64_t unit_cells = rng() % 64;  // 0 exercised on purpose
    const std::vector<WorkUnit> units = shard_units(total, unit_cells);

    const std::uint64_t effective = unit_cells == 0 ? 1 : unit_cells;
    ASSERT_EQ(units.size(), (total + effective - 1) / effective)
        << "total=" << total << " unit_cells=" << unit_cells;

    std::uint64_t cursor = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      EXPECT_EQ(units[i].index, i);
      EXPECT_EQ(units[i].begin, cursor) << "gap or overlap at unit " << i;
      EXPECT_LT(units[i].begin, units[i].end);
      EXPECT_LE(units[i].cells(), effective);
      cursor = units[i].end;
    }
    EXPECT_EQ(cursor, total);
  }
}

TEST(FarmManifest, RoundTripsThroughJson) {
  CampaignSpec spec = small_spec();
  spec.sampling.warmup_instructions = 5000;
  spec.sampling.windows = 3;
  spec.sampling.window_width = 1000;
  spec.sampling.mode = SampleMode::kRandom;
  spec.sampling.seed = 0x5A3D11ULL;
  const Manifest manifest = manifest_for(spec, 3);

  const Manifest parsed = Manifest::parse(manifest.to_json());
  EXPECT_EQ(parsed.version, kFormatVersion);
  EXPECT_EQ(parsed.config_hash, manifest.config_hash);
  EXPECT_EQ(parsed.base_seed, manifest.base_seed);
  EXPECT_EQ(parsed.instructions, manifest.instructions);
  EXPECT_EQ(parsed.trials, manifest.trials);
  EXPECT_EQ(parsed.derive_seeds, manifest.derive_seeds);
  EXPECT_EQ(parsed.variant_count, manifest.variant_count);
  EXPECT_EQ(parsed.app_count, manifest.app_count);
  EXPECT_EQ(parsed.total_cells, manifest.total_cells);
  EXPECT_EQ(parsed.unit_cells, manifest.unit_cells);
  EXPECT_EQ(parsed.unit_count, manifest.unit_count);
  EXPECT_EQ(parsed.schemes, manifest.schemes);
  EXPECT_EQ(parsed.apps, manifest.apps);
  EXPECT_EQ(parsed.decay_window, manifest.decay_window);
  EXPECT_EQ(parsed.fault_model, manifest.fault_model);
  EXPECT_EQ(parsed.fault_probability, manifest.fault_probability);
  EXPECT_EQ(parsed.sampling.warmup_instructions,
            manifest.sampling.warmup_instructions);
  EXPECT_EQ(parsed.sampling.windows, manifest.sampling.windows);
  EXPECT_EQ(parsed.sampling.window_width, manifest.sampling.window_width);
  EXPECT_EQ(parsed.sampling.mode, manifest.sampling.mode);
  EXPECT_EQ(parsed.sampling.seed, manifest.sampling.seed);

  // The reconstruction contract: a CLI-built manifest rebuilds a spec with
  // the exact same experiment fingerprint.
  const CampaignSpec rebuilt = spec_from_manifest(parsed);
  EXPECT_EQ(campaign_config_hash(rebuilt), manifest.config_hash);

  EXPECT_THROW((void)Manifest::parse("not json"), std::runtime_error);
  EXPECT_THROW((void)Manifest::parse("{}"), std::runtime_error);
}

TEST(FarmManifest, GeometrySweepRoundTripsAndReExpands) {
  // Geometry-swept manifests serialize the *base* schemes plus the sweep
  // axes; reconstruction re-runs the deterministic expansion and must land
  // on the same config hash (docs/GEOMETRY.md).
  CampaignSpec spec = small_spec();
  spec.geometry.sizes = {8 * 1024, 16 * 1024};
  spec.geometry.assocs = {2, 4};
  spec.geometry.ways_disabled = {0, 1};
  spec.geometry.pattern = mem::WayDisableConfig::Pattern::kRandom;
  spec.geometry.way_seed = 0xBEEFULL;
  expand_geometry_sweep(spec);
  ASSERT_EQ(spec.variants.size(), 2u * 8u);

  const Manifest manifest = manifest_for(spec, 4);
  // Base labels, not the 16 expanded ones: spec_from_manifest resolves
  // them through sim::cli.
  EXPECT_EQ(manifest.schemes,
            (std::vector<std::string>{"BaseP", "ICR-P-PS(S)"}));
  EXPECT_EQ(manifest.variant_count, 16u);

  const Manifest parsed = Manifest::parse(manifest.to_json());
  EXPECT_EQ(parsed.geometry.sizes, spec.geometry.sizes);
  EXPECT_EQ(parsed.geometry.assocs, spec.geometry.assocs);
  EXPECT_EQ(parsed.geometry.ways_disabled, spec.geometry.ways_disabled);
  EXPECT_EQ(parsed.geometry.pattern, spec.geometry.pattern);
  EXPECT_EQ(parsed.geometry.way_seed, spec.geometry.way_seed);

  const CampaignSpec rebuilt = spec_from_manifest(parsed);
  ASSERT_EQ(rebuilt.variants.size(), spec.variants.size());
  for (std::size_t i = 0; i < spec.variants.size(); ++i) {
    EXPECT_EQ(rebuilt.variants[i].label, spec.variants[i].label);
  }
  EXPECT_EQ(campaign_config_hash(rebuilt), manifest.config_hash);

  // A sweep-free manifest keeps its historical bytes: no "geometry" key.
  EXPECT_EQ(manifest_for(small_spec(), 4).to_json().find("\"geometry\""),
            std::string::npos);
}

TEST(FarmAggregation, GeometrySweptSpoolByteIdenticalToInMemory) {
  CampaignSpec spec = small_spec();
  spec.apps = {trace::App::kVortex};
  spec.trials = 1;
  spec.geometry.sizes = {8 * 1024};
  spec.geometry.assocs = {2, 4};
  spec.geometry.ways_disabled = {0, 1};
  expand_geometry_sweep(spec);

  const std::string spool = make_temp_spool();
  const Manifest manifest = manifest_for(spec, 3);
  init_spool(spool, manifest);
  (void)run_worker_loop(spool, spec);

  std::ostringstream csv_out, json_out;
  FarmAggregator aggregator(manifest, &csv_out, &json_out);
  for (std::uint32_t u = 0; u < manifest.unit_count; ++u) {
    aggregator.add_unit(
        u, parse_unit_json(util::fs::read_text_file(unit_path(spool, u)), u));
  }
  aggregator.finish();

  const CampaignResult in_memory = CampaignRunner(2).run(spec);
  EXPECT_EQ(csv_out.str(), to_csv(in_memory));
  EXPECT_EQ(json_out.str(), to_json(in_memory, /*include_timing=*/false));
  // Geometry provenance survived the unit-record round trip.
  EXPECT_NE(csv_out.str().find(",dl1_size,dl1_assoc,ways_disabled,"),
            std::string::npos);
}

TEST(FarmCellRecord, MetricBitsRoundTripExactly) {
  // Awkward IEEE-754 payloads must survive the checkpoint byte-for-byte:
  // the exporters print the reloaded doubles, so a single flipped mantissa
  // bit would break the bit-identical-resume guarantee.
  CellRecord record;
  record.variant_idx = 1;
  record.app_idx = 2;
  record.trial_idx = 3;
  record.seed = 0xDEADBEEFCAFEF00DULL;
  record.variant = "ICR-P-PS(S)";
  record.app = "mcf";
  record.metric_bits = {
      0x0000000000000000ULL,  // +0.0
      0x8000000000000000ULL,  // -0.0
      0x0000000000000001ULL,  // smallest subnormal
      0x3FF0000000000001ULL,  // 1.0 + 1 ulp
      0x7FEFFFFFFFFFFFFFULL,  // largest finite
      0x3FB999999999999AULL,  // 0.1
  };
  record.sampling.sampled = true;
  record.sampling.budget = 20000;
  record.sampling.warmup_instructions = 5000;
  record.sampling.windows = 3;
  record.sampling.measured_instructions = 3000;

  const std::string text = unit_to_json(7, {record});
  const std::vector<CellRecord> parsed = parse_unit_json(text, 7);
  ASSERT_EQ(parsed.size(), 1u);
  const CellRecord& back = parsed[0];
  EXPECT_EQ(back.variant_idx, record.variant_idx);
  EXPECT_EQ(back.app_idx, record.app_idx);
  EXPECT_EQ(back.trial_idx, record.trial_idx);
  EXPECT_EQ(back.seed, record.seed);
  EXPECT_EQ(back.variant, record.variant);
  EXPECT_EQ(back.app, record.app);
  EXPECT_EQ(back.metric_bits, record.metric_bits);
  EXPECT_EQ(back.sampling.sampled, record.sampling.sampled);
  EXPECT_EQ(back.sampling.budget, record.sampling.budget);
  EXPECT_EQ(back.sampling.warmup_instructions,
            record.sampling.warmup_instructions);
  EXPECT_EQ(back.sampling.windows, record.sampling.windows);
  EXPECT_EQ(back.sampling.measured_instructions,
            record.sampling.measured_instructions);

  // Wrong unit index and wrong version are rejected, not misread.
  EXPECT_THROW((void)parse_unit_json(text, 8), std::runtime_error);
}

TEST(FarmClaims, ExclusiveCreateAdmitsExactlyOneWinner) {
  const std::string spool = make_temp_spool();
  util::fs::make_directories(spool + "/claims");
  const std::string path = claim_path(spool, 0);

  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (util::fs::try_create_exclusive(path, "{\"pid\": 0}\n")) {
        winners.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_TRUE(util::fs::exists(path));
}

TEST(FarmClaims, StaleClaimsClearedOnlyWhenUnitUnpublished) {
  const std::string spool = make_temp_spool();
  const CampaignSpec spec = small_spec();
  init_spool(spool, manifest_for(spec, 2));

  // Unit 0: claim + published record (a finished worker). Unit 1: claim
  // only (a killed worker). Unit 2: claim plus a leftover temp file.
  ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 0), "{}\n"));
  util::fs::atomic_write_text_file(unit_path(spool, 0),
                                   unit_to_json(0, {}));
  ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 1), "{}\n"));
  ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 2), "{}\n"));
  util::fs::atomic_write_text_file(spool + "/units/keepme.txt", "x");

  const std::size_t cleared = clear_stale_claims(spool, 4);
  EXPECT_EQ(cleared, 2u);
  EXPECT_TRUE(util::fs::exists(claim_path(spool, 0)));  // published: kept
  EXPECT_FALSE(util::fs::exists(claim_path(spool, 1)));
  EXPECT_FALSE(util::fs::exists(claim_path(spool, 2)));
}

// Runs a spool to completion with `workers` threads, then streams it into
// strings through FarmAggregator.
void run_farm(const CampaignSpec& spec, std::uint64_t unit_cells,
              unsigned workers, std::string* csv, std::string* json) {
  const std::string spool = make_temp_spool();
  const Manifest manifest = manifest_for(spec, unit_cells);
  init_spool(spool, manifest);

  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] { (void)run_worker_loop(spool, spec); });
  }
  for (std::thread& t : threads) t.join();

  const SpoolStatus status = scan_spool(spool, manifest);
  ASSERT_TRUE(status.complete());
  ASSERT_EQ(status.cells_done, manifest.total_cells);

  std::ostringstream csv_out, json_out;
  FarmAggregator aggregator(manifest, &csv_out, &json_out);
  for (std::uint32_t u = 0; u < manifest.unit_count; ++u) {
    aggregator.add_unit(
        u, parse_unit_json(util::fs::read_text_file(unit_path(spool, u)), u));
  }
  aggregator.finish();
  EXPECT_EQ(aggregator.cells_emitted(), manifest.total_cells);
  *csv = csv_out.str();
  *json = json_out.str();
}

TEST(FarmAggregation, ByteIdenticalToInMemoryExportersAtAnyWorkerCount) {
  const CampaignSpec spec = small_spec();

  // Golden shape: the in-memory exporters over an in-process campaign.
  const CampaignResult campaign = CampaignRunner(1).run(spec);
  const std::string want_csv = to_csv(campaign);
  const std::string want_json = to_json(campaign, /*include_timing=*/false);

  std::string csv1, json1, csv4, json4;
  run_farm(spec, /*unit_cells=*/3, /*workers=*/1, &csv1, &json1);
  run_farm(spec, /*unit_cells=*/2, /*workers=*/4, &csv4, &json4);

  EXPECT_EQ(csv1, want_csv);
  EXPECT_EQ(json1, want_json);
  EXPECT_EQ(csv4, want_csv);
  EXPECT_EQ(json4, want_json);
}

TEST(FarmCoordinator, ForkedWorkersExportTheInProcessBytes) {
  // The coordinator end to end, in this process: it forks two workers that
  // run the --worker loop and leave with _exit, then aggregates the spool.
  const CampaignSpec spec = small_spec();
  const std::string spool = make_temp_spool();
  CoordinatorOptions options;
  options.workers = 2;
  options.unit_cells = 3;
  options.csv_path = spool + ".csv";
  options.json_path = spool + ".json";
  options.quiet = true;
  ASSERT_EQ(run_coordinator(spool, spec, options), 0);

  const CampaignResult campaign = CampaignRunner(1).run(spec);
  EXPECT_EQ(util::fs::read_text_file(options.csv_path), to_csv(campaign));
  EXPECT_EQ(util::fs::read_text_file(options.json_path),
            to_json(campaign, /*include_timing=*/false));
}

TEST(FarmCoordinator, WorkersZeroCensusUsesTheStalenessPolicy) {
  // --farm --workers=0 prints the census --farm-status prints, under the
  // same --stale-after/--dead-after policy: a worker silent for 6 s is dead
  // when the policy says 2 s, not running under the 15/60 s default.
  const CampaignSpec spec = small_spec();
  const std::string spool = make_temp_spool();
  CoordinatorOptions options;
  options.workers = 0;
  options.quiet = true;
  ASSERT_EQ(run_coordinator(spool, spec, options), 0);

  WorkerHeartbeat hb;
  hb.worker_id = "w0";
  hb.time_unix_seconds = unix_now_seconds() - 6.0;
  util::fs::make_directories(heartbeat_dir(spool));
  util::fs::atomic_write_text_file(heartbeat_path(spool, "w0"), hb.to_json());

  options.resume = true;
  options.quiet = false;
  options.staleness.straggler_after_seconds = 1.0;
  options.staleness.dead_after_seconds = 2.0;
  testing::internal::CaptureStdout();
  const int status = run_coordinator(spool, spec, options);
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_EQ(status, 0);
  EXPECT_NE(out.find("workers 1 (0 running, 0 straggler, 1 dead, 0 exited)"),
            std::string::npos)
      << out;
}

// A child that leaves with `code` at once, or with code < 0 waits until a
// signal ends it.
pid_t fork_child(int code) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (code < 0) {
      for (;;) ::pause();
    }
    ::_exit(code);
  }
  EXPECT_GT(pid, 0);
  return pid;
}

// The coordinator's reap wait. The timeouts are far above this test's
// ctest TIMEOUT, so a wait that slept instead of waking on the exit fails
// by timeout; no wall-clock bound is asserted.
TEST(FarmCoordinator, WaitForChildReapsAnExitingChildWithItsStatus) {
  const pid_t pid = fork_child(7);
  const std::vector<pid_t> children = {pid};
  const auto exit = wait_for_child(children, 3600.0);
  ASSERT_TRUE(exit.has_value());
  EXPECT_EQ(exit->pid, pid);
  EXPECT_EQ(exit->exit_code, 7);
}

TEST(FarmCoordinator, WaitForChildPicksTheChildThatExits) {
  const pid_t sleeper = fork_child(-1);
  const pid_t quitter = fork_child(0);
  const std::vector<pid_t> children = {sleeper, quitter};
  const auto first = wait_for_child(children, 3600.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->pid, quitter);
  EXPECT_EQ(first->exit_code, 0);

  // The sleeper is still running: a zero timeout returns without it.
  const std::vector<pid_t> left = {sleeper};
  EXPECT_FALSE(wait_for_child(left, 0.0).has_value());
  ASSERT_EQ(::kill(sleeper, SIGKILL), 0);
  const auto killed = wait_for_child(left, 3600.0);
  ASSERT_TRUE(killed.has_value());
  EXPECT_EQ(killed->pid, sleeper);
  EXPECT_EQ(killed->exit_code, -1);
}

TEST(FarmAggregation, StateIndependentOfGridSize) {
  // The bounded-memory guarantee: aggregator-owned state is a fixed set of
  // counters, so a million-cell manifest costs the same as an 8-cell one.
  CampaignSpec spec = small_spec();
  const Manifest small = manifest_for(spec, 4);

  CampaignSpec huge_spec = spec;
  huge_spec.trials = 125000;  // 2 x 2 x 125000 = 500k cells
  const Manifest huge = manifest_for(huge_spec, 64);
  ASSERT_GT(huge.total_cells, 100000u);

  std::ostringstream sink_a, sink_b;
  const FarmAggregator a(small, &sink_a, nullptr);
  const FarmAggregator b(huge, nullptr, &sink_b);
  EXPECT_EQ(a.state_bytes(), b.state_bytes());

  // And refusing to finish a truncated stream is part of the contract.
  std::ostringstream sink_c;
  FarmAggregator c(small, &sink_c, nullptr);
  EXPECT_THROW(c.finish(), std::runtime_error);
}

TEST(FarmWorker, SpecHashMismatchRejected) {
  const std::string spool = make_temp_spool();
  const CampaignSpec spec = small_spec();
  init_spool(spool, manifest_for(spec, 2));

  CampaignSpec tampered = spec;
  tampered.base_seed ^= 1;
  EXPECT_THROW((void)run_worker_loop(spool, tampered), std::runtime_error);
}

TEST(FarmWorker, MaxUnitsStopsEarlyAndResumeCompletes) {
  const std::string spool = make_temp_spool();
  const CampaignSpec spec = small_spec();
  const Manifest manifest = manifest_for(spec, 2);
  init_spool(spool, manifest);

  const WorkerReport first = run_worker_loop(spool, spec, /*max_units=*/1);
  EXPECT_EQ(first.units_run, 1u);
  EXPECT_FALSE(scan_spool(spool, manifest).complete());

  const WorkerReport rest = run_worker_loop(spool, spec);
  EXPECT_EQ(first.units_run + rest.units_run, manifest.unit_count);
  EXPECT_TRUE(scan_spool(spool, manifest).complete());
}

std::string hash_text(std::uint64_t hash) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

TEST(FarmSpool, ResumeRejectsADifferentExperimentAndLeavesTheSpoolAlone) {
  const std::string spool = make_temp_spool();
  const CampaignSpec spec = small_spec();
  const Manifest stored = manifest_for(spec, 2);
  init_spool(spool, stored);
  ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 1), "{}\n"));
  const std::string manifest_text = util::fs::read_text_file(
      manifest_path(spool));

  CampaignSpec other = spec;
  other.base_seed ^= 1;
  const Manifest requested = manifest_for(other, 2);
  ASSERT_NE(requested.config_hash, stored.config_hash);
  try {
    (void)open_spool(spool, requested, /*resume=*/true, /*log_events=*/true);
    FAIL() << "a resume of a different experiment must throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(hash_text(stored.config_hash)), std::string::npos)
        << what;
    EXPECT_NE(what.find(hash_text(requested.config_hash)), std::string::npos)
        << what;
  }
  // Untouched: same manifest bytes, the stale claim still there, no sweep
  // events.
  EXPECT_EQ(util::fs::read_text_file(manifest_path(spool)), manifest_text);
  EXPECT_TRUE(util::fs::exists(claim_path(spool, 1)));
  EXPECT_FALSE(util::fs::exists(event_log_dir(spool)));
}

TEST(FarmSpool, FreshOpenRefusesASpoolThatHasAManifest) {
  const std::string spool = make_temp_spool();
  const Manifest manifest = manifest_for(small_spec(), 2);
  const OpenedSpool first =
      open_spool(spool, manifest, /*resume=*/false, /*log_events=*/false);
  EXPECT_EQ(first.manifest.to_json(), manifest.to_json());
  EXPECT_EQ(first.cleared, 0u);
  EXPECT_TRUE(util::fs::exists(manifest_path(spool)));
  EXPECT_THROW(
      (void)open_spool(spool, manifest, /*resume=*/false, /*log_events=*/false),
      std::invalid_argument);
}

TEST(FarmSpool, ResumeKeepsTheStoredSharding) {
  const std::string spool = make_temp_spool();
  const CampaignSpec spec = small_spec();
  const Manifest stored = manifest_for(spec, 2);
  init_spool(spool, stored);
  // unit_cells is not part of the experiment, so the hash still matches.
  const OpenedSpool resumed = open_spool(spool, manifest_for(spec, 3),
                                         /*resume=*/true, /*log_events=*/false);
  EXPECT_EQ(resumed.manifest.unit_cells, 2u);
  EXPECT_EQ(resumed.manifest.unit_count, stored.unit_count);
  EXPECT_EQ(resumed.cleared, 0u);
}

TEST(FarmSpool, ResumeClearsAStaleClaimAndLogsTheSweep) {
  const CampaignSpec spec = small_spec();
  const Manifest manifest = manifest_for(spec, 2);
  // Unit 0 finished (claim + record); unit 1 was claimed by a killed worker.
  const auto plant = [&](const std::string& spool) {
    init_spool(spool, manifest);
    ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 0), "{}\n"));
    util::fs::atomic_write_text_file(unit_path(spool, 0), unit_to_json(0, {}));
    ASSERT_TRUE(util::fs::try_create_exclusive(claim_path(spool, 1), "{}\n"));
  };

  const std::string logged = make_temp_spool();
  plant(logged);
  const OpenedSpool opened =
      open_spool(logged, manifest, /*resume=*/true, /*log_events=*/true);
  EXPECT_EQ(opened.cleared, 1u);
  EXPECT_TRUE(util::fs::exists(claim_path(logged, 0)));
  EXPECT_FALSE(util::fs::exists(claim_path(logged, 1)));
  const std::vector<FarmEvent> events = read_farm_events(logged);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].worker_id, "coordinator");
  EXPECT_EQ(events[0].type, FarmEventType::kStaleClear);
  EXPECT_EQ(events[0].unit, 1);
  EXPECT_EQ(events[1].worker_id, "coordinator");
  EXPECT_EQ(events[1].type, FarmEventType::kResumeSweep);
  EXPECT_EQ(events[1].cells, 1u);

  const std::string quiet = make_temp_spool();
  plant(quiet);
  EXPECT_EQ(open_spool(quiet, manifest, /*resume=*/true, /*log_events=*/false)
                .cleared,
            1u);
  EXPECT_FALSE(util::fs::exists(claim_path(quiet, 1)));
  EXPECT_FALSE(util::fs::exists(event_log_dir(quiet)));
}

TEST(FarmCli, UnknownFlagHelperExitsWithUsageHint) {
  // The shared rejection path every CLI binary (tools + benches) routes
  // unknown "--" flags through: non-zero exit plus a --help pointer.
  EXPECT_EXIT(cli::unknown_flag("farm_test", "--bogus-flag"),
              testing::ExitedWithCode(2), "unknown flag '--bogus-flag'");
}

}  // namespace
}  // namespace icr::sim::farm
