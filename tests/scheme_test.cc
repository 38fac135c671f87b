#include "src/core/scheme.h"

#include <gtest/gtest.h>

namespace icr::core {
namespace {

TEST(Scheme, BaseSchemesDisableReplication) {
  EXPECT_FALSE(Scheme::BaseP().replication_enabled);
  EXPECT_FALSE(Scheme::BaseECC().replication_enabled);
  EXPECT_EQ(Scheme::BaseP().protection, Protection::kParity);
  EXPECT_EQ(Scheme::BaseECC().protection, Protection::kEcc);
  EXPECT_FALSE(Scheme::BaseECC().speculative_ecc_loads);
  EXPECT_TRUE(Scheme::BaseECCSpeculative().speculative_ecc_loads);
}

TEST(Scheme, IcrVariantsEncodePaperMatrix) {
  const Scheme s = Scheme::IcrEccPS_S();
  EXPECT_TRUE(s.replication_enabled);
  EXPECT_EQ(s.protection, Protection::kEcc);
  EXPECT_EQ(s.lookup, LookupMode::kSerial);
  EXPECT_EQ(s.trigger, ReplicateOn::kStores);

  const Scheme p = Scheme::IcrPPP_LS();
  EXPECT_EQ(p.protection, Protection::kParity);
  EXPECT_EQ(p.lookup, LookupMode::kParallel);
  EXPECT_EQ(p.trigger, ReplicateOn::kLoadsAndStores);
}

TEST(Scheme, AllPaperSchemesAreTen) {
  const auto all = Scheme::all_paper_schemes();
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[0].name, "BaseP");
  EXPECT_EQ(all[1].name, "BaseECC");
  // Names are unique.
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i].name, all[j].name);
    }
  }
}

TEST(Scheme, FluentBuildersDoNotMutateOriginal) {
  const Scheme base = Scheme::IcrPPS_S();
  const Scheme tweaked = base.with_decay_window(1000)
                             .with_victim_policy(ReplicaVictimPolicy::kDeadFirst)
                             .with_leave_replicas(true);
  EXPECT_EQ(base.decay_window, 0u);
  EXPECT_EQ(base.victim_policy, ReplicaVictimPolicy::kDeadOnly);
  EXPECT_FALSE(base.leave_replicas_on_eviction);
  EXPECT_EQ(tweaked.decay_window, 1000u);
  EXPECT_EQ(tweaked.victim_policy, ReplicaVictimPolicy::kDeadFirst);
  EXPECT_TRUE(tweaked.leave_replicas_on_eviction);
}

TEST(Scheme, WriteThroughBuilder) {
  const Scheme wt = Scheme::BaseP().with_write_through();
  EXPECT_EQ(wt.write_policy, WritePolicy::kWriteThrough);
  EXPECT_EQ(Scheme::BaseP().write_policy, WritePolicy::kWriteBack);
}

TEST(Scheme, DefaultReplicationIsPaperSetting) {
  // §5.1 conclusion: one replica, single attempt, Distance-N/2.
  const Scheme s = Scheme::IcrPPS_S();
  EXPECT_EQ(s.replication.num_replicas, 1u);
  EXPECT_EQ(s.replication.fallback, FallbackStrategy::kNone);
  EXPECT_EQ(s.replication.first_distance.kind, Distance::Kind::kHalfSets);
  EXPECT_EQ(s.victim_policy, ReplicaVictimPolicy::kDeadOnly);
  EXPECT_EQ(s.decay_window, 0u);
}

}  // namespace
}  // namespace icr::core
