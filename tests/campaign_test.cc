// Tier-2 determinism contract of the campaign engine: per-cell metrics and
// exported text are bit-identical for any thread count, and per-cell seeds
// are unique across the grid.
#include "src/sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "src/sim/results_io.h"
#include "src/util/thread_pool.h"

namespace icr::sim {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.variants = {
      {"BaseP", core::Scheme::BaseP()},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
      {"ICR-ECC-PS(S)", core::Scheme::IcrEccPS_S()},
  };
  spec.apps = {trace::App::kVortex, trace::App::kMcf, trace::App::kGzip};
  spec.instructions = 20000;
  spec.trials = 2;
  spec.derive_seeds = true;
  spec.base_seed = 0xD5DB2003ULL;
  spec.config.fault_model = fault::FaultModel::kRandom;
  spec.config.fault_probability = 1e-4;
  return spec;
}

TEST(Campaign, MetricsBitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = small_spec();
  const CampaignResult one = CampaignRunner(1).run(spec);
  const CampaignResult two = CampaignRunner(2).run(spec);
  const CampaignResult eight = CampaignRunner(8).run(spec);

  ASSERT_EQ(one.cells.size(), spec.cell_count());
  ASSERT_EQ(two.cells.size(), one.cells.size());
  ASSERT_EQ(eight.cells.size(), one.cells.size());

  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    const std::vector<double> a = metric_values(one.cells[i].result);
    const std::vector<double> b = metric_values(two.cells[i].result);
    const std::vector<double> c = metric_values(eight.cells[i].result);
    ASSERT_EQ(a.size(), metric_columns().size());
    for (std::size_t m = 0; m < a.size(); ++m) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a[m], b[m]) << "cell " << i << " metric "
                            << metric_columns()[m] << " (1 vs 2 threads)";
      EXPECT_EQ(a[m], c[m]) << "cell " << i << " metric "
                            << metric_columns()[m] << " (1 vs 8 threads)";
    }
    EXPECT_EQ(one.cells[i].cell.seed, eight.cells[i].cell.seed);
    EXPECT_EQ(one.cells[i].result.scheme, eight.cells[i].result.scheme);
    EXPECT_EQ(one.cells[i].result.app, eight.cells[i].result.app);
  }
}

TEST(Campaign, JsonAndCsvIdenticalAcrossThreadCountsModuloTiming) {
  const CampaignSpec spec = small_spec();
  const CampaignResult one = CampaignRunner(1).run(spec);
  const CampaignResult eight = CampaignRunner(8).run(spec);

  EXPECT_EQ(to_json(one, /*include_timing=*/false),
            to_json(eight, /*include_timing=*/false));
  EXPECT_EQ(to_csv(one), to_csv(eight));
  // With timing included the texts legitimately differ (wall time), but
  // the experiment fingerprint does not.
  EXPECT_EQ(one.meta.config_hash, eight.meta.config_hash);
}

TEST(Campaign, CellSeedsUniqueAcrossGrid) {
  // A full-size grid: 10 variants x 8 apps x 16 trials.
  std::set<std::uint64_t> seeds;
  for (std::size_t v = 0; v < 10; ++v) {
    for (std::size_t a = 0; a < 8; ++a) {
      for (std::size_t t = 0; t < 16; ++t) {
        seeds.insert(derive_cell_seed(0x1C9CA37ULL, v, a, t));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 10u * 8u * 16u);
}

TEST(Campaign, CellSeedsDependOnEveryCoordinate) {
  const std::uint64_t base = derive_cell_seed(1, 2, 3, 4);
  EXPECT_EQ(base, derive_cell_seed(1, 2, 3, 4));
  EXPECT_NE(base, derive_cell_seed(2, 2, 3, 4));
  EXPECT_NE(base, derive_cell_seed(1, 3, 3, 4));
  EXPECT_NE(base, derive_cell_seed(1, 2, 4, 4));
  EXPECT_NE(base, derive_cell_seed(1, 2, 3, 5));
}

TEST(Campaign, DerivedSeedsChangeTheRun) {
  // Same grid, different base seed => different injected-fault streams.
  CampaignSpec spec = small_spec();
  spec.variants = {{"BaseP", core::Scheme::BaseP()}};
  spec.apps = {trace::App::kVortex};
  spec.trials = 4;
  spec.config.fault_probability = 1e-3;

  CampaignSpec other = spec;
  other.base_seed = spec.base_seed + 1;

  const CampaignResult a = CampaignRunner(2).run(spec);
  const CampaignResult b = CampaignRunner(2).run(other);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (metric_values(a.cells[i].result) != metric_values(b.cells[i].result)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Campaign, LegacySeedModeMatchesRunMatrix) {
  // derive_seeds = false must reproduce the sequential run_matrix numbers —
  // the contract that lets every figure bench ride the engine unchanged.
  const std::vector<SchemeVariant> variants = {
      {"BaseP", core::Scheme::BaseP()}, {"BaseECC", core::Scheme::BaseECC()}};
  const std::vector<trace::App> apps = {trace::App::kGzip, trace::App::kMcf};

  const auto matrix = run_matrix(variants, apps, SimConfig::table1(), 20000);

  CampaignSpec spec;
  spec.variants = variants;
  spec.apps = apps;
  spec.instructions = 20000;
  const CampaignResult campaign = CampaignRunner(8).run(spec);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t a = 0; a < apps.size(); ++a) {
      EXPECT_EQ(metric_values(matrix[v][a]),
                metric_values(campaign.at(v, a, 0, apps.size(), 1).result));
    }
  }
}

TEST(Campaign, ThreadResolutionPrefersExplicitThenEnvThenHardware) {
  EXPECT_EQ(resolve_thread_count(5), 5u);
  setenv("ICR_SIM_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(0), 3u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  const unsigned hardware = util::ThreadPool::hardware_threads();
  // Only a whole positive number overrides: no numeric prefix, no sign.
  for (const char* bad : {"junk", "12abc", "-5"}) {
    setenv("ICR_SIM_THREADS", bad, 1);
    EXPECT_EQ(resolve_thread_count(0), hardware) << bad;
  }
  unsetenv("ICR_SIM_THREADS");
  EXPECT_GE(resolve_thread_count(0), 1u);
}

// ---- degraded-geometry regressions (docs/GEOMETRY.md) ----

TEST(CampaignGeometry, HashOfNonGeometrySpecsPinnedAcrossVersions) {
  // Golden fingerprint of small_spec(): geometry (and every other
  // conditionally-folded axis) must not move the hash of a spec that does
  // not use it. If this value changes, config hashes exported by earlier
  // runs stop matching — bump it only with a deliberate format break.
  EXPECT_EQ(campaign_config_hash(small_spec()), 0x4fa8d4a66140fc3cULL);
}

TEST(CampaignGeometry, DisabledMaskZeroByteIdenticalToPlainRun) {
  // An explicit count=0 way-disable config is enabled()==false: the run,
  // the exports, and the config hash are byte-for-byte the pre-PR ones,
  // at 1 and at 8 threads.
  const CampaignSpec plain = small_spec();
  CampaignSpec masked_zero = small_spec();
  masked_zero.config.dl1_way_disable = mem::WayDisableConfig{};
  masked_zero.config.dl1_way_disable.count = 0;

  EXPECT_EQ(campaign_config_hash(plain), campaign_config_hash(masked_zero));

  const CampaignResult a1 = CampaignRunner(1).run(plain);
  const CampaignResult b1 = CampaignRunner(1).run(masked_zero);
  const CampaignResult b8 = CampaignRunner(8).run(masked_zero);
  EXPECT_EQ(to_csv(a1), to_csv(b1));
  EXPECT_EQ(to_csv(a1), to_csv(b8));
  EXPECT_EQ(to_json(a1, /*include_timing=*/false),
            to_json(b1, /*include_timing=*/false));
  EXPECT_EQ(to_json(a1, /*include_timing=*/false),
            to_json(b8, /*include_timing=*/false));
}

TEST(CampaignGeometry, AxesAbsentLeaveExportSchemaUnchanged) {
  // No geometry sweep => the historical CSV header and JSON cell schema,
  // with no dl1_size/dl1_assoc/ways_disabled columns anywhere.
  const CampaignResult result = CampaignRunner(2).run(small_spec());
  EXPECT_FALSE(result.meta.geometry);
  const std::string csv = to_csv(result);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header.rfind("variant,app,trial,seed,instructions,", 0), 0u);
  EXPECT_EQ(header.find("dl1_size"), std::string::npos);
  EXPECT_EQ(header.find("ways_disabled"), std::string::npos);
  EXPECT_EQ(csv.find("dl1_size"), std::string::npos);
  EXPECT_EQ(to_json(result, false).find("\"geometry\""), std::string::npos);
}

CampaignSpec geometry_spec() {
  CampaignSpec spec = small_spec();
  spec.geometry.sizes = {8 * 1024, 16 * 1024};
  spec.geometry.assocs = {2, 4};
  spec.geometry.ways_disabled = {0, 1, 2};
  expand_geometry_sweep(spec);
  return spec;
}

TEST(CampaignGeometry, SweepExpansionIsDeterministicAndSkipsInfeasible) {
  const CampaignSpec spec = geometry_spec();
  // 3 base schemes x (2 sizes x 2 assocs x 3 k - 2 infeasible 2-way/d2
  // combinations) = 30 variants, in a reproducible order.
  EXPECT_EQ(spec.variants.size(), 30u);
  EXPECT_EQ(spec.geometry.base_schemes.size(), 3u);
  EXPECT_EQ(spec.variants.front().label, "BaseP@8K/2w-d0");
  for (const SchemeVariant& v : spec.variants) {
    ASSERT_TRUE(v.config.has_value()) << v.label;
    EXPECT_LT(v.config->dl1_way_disable.count, v.config->dl1.associativity);
  }
  EXPECT_EQ(campaign_config_hash(spec),
            campaign_config_hash(geometry_spec()));
  // Re-expanding an already-expanded spec is an error, not silent
  // quadratic growth.
  CampaignSpec expanded = geometry_spec();
  EXPECT_THROW(expand_geometry_sweep(expanded), std::invalid_argument);
}

TEST(CampaignGeometry, SweepBitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = geometry_spec();
  const CampaignResult one = CampaignRunner(1).run(spec);
  const CampaignResult eight = CampaignRunner(8).run(spec);
  EXPECT_TRUE(one.meta.geometry);
  EXPECT_EQ(to_csv(one), to_csv(eight));
  EXPECT_EQ(to_json(one, /*include_timing=*/false),
            to_json(eight, /*include_timing=*/false));
  // Geometry provenance columns present and populated.
  const std::string csv = to_csv(one);
  EXPECT_NE(csv.find(",dl1_size,dl1_assoc,ways_disabled,"),
            std::string::npos);
  EXPECT_NE(csv.find("BaseP@8K/2w-d1,"), std::string::npos);
  for (const CellResult& cell : one.cells) {
    EXPECT_TRUE(cell.geometry.present);
  }
}

TEST(Campaign, ConfigHashSeparatesExperiments) {
  const CampaignSpec spec = small_spec();
  CampaignSpec different_seed = spec;
  different_seed.base_seed ^= 1;
  CampaignSpec different_fault = spec;
  different_fault.config.fault_probability = 2e-4;
  CampaignSpec different_apps = spec;
  different_apps.apps.pop_back();

  const std::uint64_t base = campaign_config_hash(spec);
  EXPECT_EQ(base, campaign_config_hash(spec));
  EXPECT_NE(base, campaign_config_hash(different_seed));
  EXPECT_NE(base, campaign_config_hash(different_fault));
  EXPECT_NE(base, campaign_config_hash(different_apps));
}

}  // namespace
}  // namespace icr::sim
