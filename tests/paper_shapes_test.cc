// Shape-regression suite: pins the *orderings* the paper's conclusions rest
// on, across several applications, at a small instruction count. If a
// refactor flips who wins, these tests fail before any bench is run.
#include <gtest/gtest.h>

#include "src/sim/experiment.h"

namespace icr::sim {
namespace {

constexpr std::uint64_t kN = 40000;

core::Scheme relaxed(core::Scheme s) {
  return s.with_decay_window(1000).with_victim_policy(
      core::ReplicaVictimPolicy::kDeadFirst);
}

class ShapePerApp : public ::testing::TestWithParam<trace::App> {};

TEST_P(ShapePerApp, EccCostsMoreThanIcrPPsS) {
  const trace::App app = GetParam();
  const auto base = run_one(app, core::Scheme::BaseP(), SimConfig::table1(), kN);
  const auto ecc = run_one(app, core::Scheme::BaseECC(), SimConfig::table1(), kN);
  const auto icr =
      run_one(app, relaxed(core::Scheme::IcrPPS_S()), SimConfig::table1(), kN);
  // BaseP <= ICR-P-PS(S) <= BaseECC in execution cycles (Fig. 12 ordering).
  EXPECT_LE(base.cycles, icr.cycles);
  EXPECT_LE(icr.cycles, ecc.cycles);
}

TEST_P(ShapePerApp, LsReplicatesMoreThanS) {
  const trace::App app = GetParam();
  const auto s = run_one(app, core::Scheme::IcrPPS_S(), SimConfig::table1(), kN);
  const auto ls =
      run_one(app, core::Scheme::IcrPPS_LS(), SimConfig::table1(), kN);
  // Fig. 6: LS > S in ability; Fig. 7: LS > S in loads-with-replica;
  // Fig. 8: LS raises the miss rate above S above Base.
  EXPECT_GT(ls.dl1.replication_ability(), s.dl1.replication_ability());
  EXPECT_GT(ls.dl1.loads_with_replica_fraction(),
            s.dl1.loads_with_replica_fraction());
  EXPECT_GE(ls.dl1.miss_rate(), s.dl1.miss_rate());
}

TEST_P(ShapePerApp, PpSchemesClusterWithEcc) {
  const trace::App app = GetParam();
  const auto base = run_one(app, core::Scheme::BaseP(), SimConfig::table1(), kN);
  const auto pp = run_one(app, core::Scheme::IcrPPP_S(), SimConfig::table1(), kN);
  const auto ps = run_one(app, core::Scheme::IcrPPS_S(), SimConfig::table1(), kN);
  // Fig. 9: parallel-probe schemes pay 2-cycle hits and cost clearly more
  // than the serial-probe variant.
  EXPECT_GT(pp.cycles, ps.cycles);
  EXPECT_GE(ps.cycles, base.cycles);
}

TEST_P(ShapePerApp, TwoReplicasRaiseMissRate) {
  const trace::App app = GetParam();
  core::ReplicationConfig two;
  two.num_replicas = 2;
  two.fallback = core::FallbackStrategy::kMultiAttempt;
  two.extra_attempts = {core::Distance::quarter()};
  const auto one = run_one(app, core::Scheme::IcrPPS_S(), SimConfig::table1(), kN);
  const auto dup = run_one(app, core::Scheme::IcrPPS_S().with_replication(two),
                           SimConfig::table1(), kN);
  EXPECT_GE(dup.dl1.miss_rate(), one.dl1.miss_rate());  // Fig. 4
}

INSTANTIATE_TEST_SUITE_P(Apps, ShapePerApp,
                         ::testing::Values(trace::App::kGzip, trace::App::kVpr,
                                           trace::App::kMcf,
                                           trace::App::kMesa),
                         [](const auto& info) {
                           return std::string(trace::to_string(info.param));
                         });

TEST(Shape, McfMissRateBarelyMovesUnderReplication) {
  // Fig. 8's mcf anomaly: locality is so poor that replica pollution costs
  // almost nothing.
  const auto base =
      run_one(trace::App::kMcf, core::Scheme::BaseP(), SimConfig::table1(), kN);
  const auto icr = run_one(trace::App::kMcf, core::Scheme::IcrPPS_S(),
                           SimConfig::table1(), kN);
  EXPECT_LT(icr.dl1.miss_rate() - base.dl1.miss_rate(), 0.04);
  EXPECT_LT(static_cast<double>(icr.cycles) / base.cycles, 1.02);
}

TEST(Shape, WriteThroughSlowerAndHungrierThanIcr) {
  // Fig. 16 on one app (store-heavy vortex shows it best).
  const auto icr =
      run_one(trace::App::kVortex, relaxed(core::Scheme::IcrPPS_S()),
              SimConfig::table1(), kN);
  const auto wt = run_one(trace::App::kVortex,
                          core::Scheme::BaseP().with_write_through(),
                          SimConfig::table1(), kN);
  EXPECT_GT(wt.cycles, icr.cycles);
  EXPECT_GT(wt.energy.total_nj(), icr.energy.total_nj());
}

TEST(Shape, DecayWindowTradesAbilityForMissRate) {
  // Fig. 10/11: larger window -> lower ability, lower miss rate.
  const auto w0 = run_one(trace::App::kVpr, core::Scheme::IcrPPS_S(),
                          SimConfig::table1(), kN);
  const auto w10k = run_one(trace::App::kVpr,
                            core::Scheme::IcrPPS_S().with_decay_window(10000),
                            SimConfig::table1(), kN);
  EXPECT_GT(w0.dl1.replication_ability(), w10k.dl1.replication_ability());
  EXPECT_GT(w0.dl1.miss_rate(), w10k.dl1.miss_rate());
}

TEST(Shape, InjectionOrdering) {
  // Fig. 14 ordering at a high rate: BaseP loses the most loads; ICR-P
  // recovers most of them; ICR-ECC more; BaseECC everything (singles).
  SimConfig cfg = SimConfig::table1();
  cfg.fault_probability = 2e-3;
  const std::uint64_t n = 60000;
  const auto p = run_one(trace::App::kVortex, core::Scheme::BaseP(), cfg, n);
  const auto icr_p =
      run_one(trace::App::kVortex, core::Scheme::IcrPPS_S(), cfg, n);
  const auto icr_e =
      run_one(trace::App::kVortex, core::Scheme::IcrEccPS_S(), cfg, n);
  const auto ecc = run_one(trace::App::kVortex, core::Scheme::BaseECC(), cfg, n);
  EXPECT_GT(p.dl1.unrecoverable_loads, icr_p.dl1.unrecoverable_loads);
  EXPECT_GE(icr_p.dl1.unrecoverable_loads, icr_e.dl1.unrecoverable_loads);
  EXPECT_GE(icr_e.dl1.unrecoverable_loads, ecc.dl1.unrecoverable_loads);
}

}  // namespace
}  // namespace icr::sim
