// End-to-end integration tests over the full system.
#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include "src/sim/experiment.h"

namespace icr::sim {
namespace {

constexpr std::uint64_t kSmallRun = 30000;

TEST(Simulator, RunsAndReportsBasicMetrics) {
  Simulator s(SimConfig::table1(), core::Scheme::BaseP(),
              trace::profile_for(trace::App::kGzip));
  const RunResult r = s.run(kSmallRun);
  EXPECT_GE(r.instructions, kSmallRun);
  EXPECT_GT(r.cycles, r.instructions / 4);  // can't beat the issue width
  EXPECT_GT(r.dl1.loads, 0u);
  EXPECT_GT(r.dl1.stores, 0u);
  EXPECT_GT(r.energy.total_nj(), 0.0);
  EXPECT_EQ(r.scheme, "BaseP");
  EXPECT_EQ(r.app, "gzip");
}

TEST(Simulator, DeterministicAcrossInstances) {
  auto run = [] {
    Simulator s(SimConfig::table1(), core::Scheme::IcrPPS_S(),
                trace::profile_for(trace::App::kVpr));
    return s.run(kSmallRun).cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(Simulator, BaseEccIsSlowerThanBaseP) {
  const RunResult p = run_one(trace::App::kGzip, core::Scheme::BaseP(),
                              SimConfig::table1(), kSmallRun);
  const RunResult e = run_one(trace::App::kGzip, core::Scheme::BaseECC(),
                              SimConfig::table1(), kSmallRun);
  EXPECT_GT(e.cycles, p.cycles);
  // Identical memory behaviour: ECC does not change miss rates.
  EXPECT_NEAR(e.dl1.miss_rate(), p.dl1.miss_rate(), 0.002);
}

TEST(Simulator, IcrCreatesReplicasAndServesLoads) {
  const RunResult r = run_one(trace::App::kGzip, core::Scheme::IcrPPS_S(),
                              SimConfig::table1(), kSmallRun);
  EXPECT_GT(r.dl1.replicas_created, 100u);
  EXPECT_GT(r.dl1.loads_with_replica_fraction(), 0.5);
  EXPECT_GT(r.dl1.replication_ability(), 0.05);
  EXPECT_LT(r.dl1.replication_ability(), 1.0);
}

TEST(Simulator, IcrRaisesMissRateButLittleTime) {
  const RunResult p = run_one(trace::App::kGzip, core::Scheme::BaseP(),
                              SimConfig::table1(), kSmallRun);
  const RunResult s = run_one(trace::App::kGzip, core::Scheme::IcrPPS_S(),
                              SimConfig::table1(), kSmallRun);
  EXPECT_GT(s.dl1.miss_rate(), p.dl1.miss_rate());
  // ...but the execution-time cost stays far below the ECC cost (the
  // paper's headline claim).
  const RunResult e = run_one(trace::App::kGzip, core::Scheme::BaseECC(),
                              SimConfig::table1(), kSmallRun);
  EXPECT_LT(static_cast<double>(s.cycles) - p.cycles,
            static_cast<double>(e.cycles) - p.cycles);
}

TEST(Simulator, NoCorruptionWithoutInjection) {
  for (auto scheme : {core::Scheme::BaseP(), core::Scheme::IcrPPS_LS(),
                      core::Scheme::IcrEccPS_S()}) {
    const RunResult r = run_one(trace::App::kParser, scheme,
                                SimConfig::table1(), kSmallRun);
    EXPECT_EQ(r.pipeline.silent_corrupt_loads, 0u) << scheme.name;
    EXPECT_EQ(r.pipeline.unrecoverable_loads, 0u) << scheme.name;
    EXPECT_EQ(r.dl1.errors_detected, 0u) << scheme.name;
  }
}

TEST(Simulator, InjectionCausesDetectedErrors) {
  SimConfig cfg = SimConfig::table1();
  cfg.fault_probability = 0.001;  // very high, to get counts quickly
  const RunResult r =
      run_one(trace::App::kVortex, core::Scheme::IcrPPS_S(), cfg, kSmallRun);
  EXPECT_GT(r.faults.injections, 10u);
  EXPECT_GT(r.dl1.errors_detected, 0u);
  EXPECT_GT(r.dl1.errors_corrected_by_replica, 0u);
}

TEST(Simulator, BaseEccRecoversWhereBasePCannot) {
  SimConfig cfg = SimConfig::table1();
  cfg.fault_probability = 0.001;
  const RunResult p =
      run_one(trace::App::kVortex, core::Scheme::BaseP(), cfg, kSmallRun);
  const RunResult e =
      run_one(trace::App::kVortex, core::Scheme::BaseECC(), cfg, kSmallRun);
  EXPECT_GT(p.dl1.unrecoverable_loads, 0u);
  EXPECT_EQ(e.dl1.unrecoverable_loads, 0u);  // SEC-DED corrects all singles
  EXPECT_GT(e.dl1.errors_corrected_by_ecc, 0u);
}

TEST(Simulator, IcrReducesUnrecoverableLoadsVsBaseP) {
  SimConfig cfg = SimConfig::table1();
  cfg.fault_probability = 0.0005;
  const RunResult p =
      run_one(trace::App::kVortex, core::Scheme::BaseP(), cfg, 60000);
  const RunResult s =
      run_one(trace::App::kVortex, core::Scheme::IcrPPS_S(), cfg, 60000);
  EXPECT_LT(s.dl1.unrecoverable_loads, p.dl1.unrecoverable_loads);
}

TEST(Simulator, WriteThroughCostsMoreEnergyAndTime) {
  const RunResult wb = run_one(trace::App::kGzip, core::Scheme::IcrPPS_S(),
                               SimConfig::table1(), kSmallRun);
  const RunResult wt =
      run_one(trace::App::kGzip, core::Scheme::BaseP().with_write_through(),
              SimConfig::table1(), kSmallRun);
  EXPECT_GT(wt.energy_events.l2_writes, wb.energy_events.l2_writes * 2);
  EXPECT_GT(wt.energy.l2_nj, wb.energy.l2_nj);
}

TEST(Simulator, EnergyEventsExcludeIfetchL2Reads) {
  Simulator s(SimConfig::table1(), core::Scheme::BaseP(),
              trace::profile_for(trace::App::kGcc));
  const RunResult r = s.run(kSmallRun);
  EXPECT_LE(r.energy_events.l2_reads + s.hierarchy().l2_ifetch_reads(),
            s.hierarchy().l2_read_accesses());
}

TEST(Simulator, InvariantsHoldAfterFullRun) {
  for (auto scheme :
       {core::Scheme::IcrPPS_S(), core::Scheme::IcrEccPP_LS(),
        core::Scheme::IcrPPS_S().with_leave_replicas(true)}) {
    Simulator s(SimConfig::table1(), scheme,
                trace::profile_for(trace::App::kVpr));
    s.run(kSmallRun);
    s.dl1().check_invariants();
  }
}

}  // namespace
}  // namespace icr::sim
