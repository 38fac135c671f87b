#include "src/cpu/functional_units.h"

#include <gtest/gtest.h>

namespace icr::cpu {
namespace {

using trace::OpClass;

TEST(FunctionalUnits, IntAluCapacity) {
  FunctionalUnits fu;  // 4 int ALUs
  std::uint32_t lat = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fu.try_issue(OpClass::kIntAlu, 0, lat));
    EXPECT_EQ(lat, 1u);
  }
  EXPECT_FALSE(fu.try_issue(OpClass::kIntAlu, 0, lat));
  // Pipelined: free again next cycle.
  EXPECT_TRUE(fu.try_issue(OpClass::kIntAlu, 1, lat));
}

TEST(FunctionalUnits, BranchesShareIntAlus) {
  FunctionalUnits fu;
  std::uint32_t lat = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fu.try_issue(i % 2 ? OpClass::kBranch : OpClass::kIntAlu, 0,
                             lat));
  }
  EXPECT_FALSE(fu.try_issue(OpClass::kBranch, 0, lat));
}

TEST(FunctionalUnits, MultiplierIsPipelined) {
  FunctionalUnits fu;  // 1 int mul/div
  std::uint32_t lat = 0;
  EXPECT_TRUE(fu.try_issue(OpClass::kIntMul, 0, lat));
  EXPECT_EQ(lat, 3u);
  EXPECT_FALSE(fu.try_issue(OpClass::kIntMul, 0, lat));  // same cycle
  EXPECT_TRUE(fu.try_issue(OpClass::kIntMul, 1, lat));   // next cycle
}

TEST(FunctionalUnits, DividerIsUnpipelined) {
  FunctionalUnits fu;
  std::uint32_t lat = 0;
  EXPECT_TRUE(fu.try_issue(OpClass::kIntDiv, 0, lat));
  EXPECT_EQ(lat, 20u);
  // Blocked for the whole operation.
  EXPECT_FALSE(fu.try_issue(OpClass::kIntMul, 5, lat));
  EXPECT_FALSE(fu.try_issue(OpClass::kIntDiv, 19, lat));
  EXPECT_TRUE(fu.try_issue(OpClass::kIntMul, 20, lat));
}

TEST(FunctionalUnits, FpLatenciesMatchTable) {
  FunctionalUnits fu;
  std::uint32_t lat = 0;
  EXPECT_TRUE(fu.try_issue(OpClass::kFpAlu, 0, lat));
  EXPECT_EQ(lat, 2u);
  EXPECT_TRUE(fu.try_issue(OpClass::kFpMul, 0, lat));
  EXPECT_EQ(lat, 4u);
  FunctionalUnits fu2;
  EXPECT_TRUE(fu2.try_issue(OpClass::kFpDiv, 0, lat));
  EXPECT_EQ(lat, 12u);
}

TEST(FunctionalUnits, MemPortsLimitLoadsPerCycle) {
  FunctionalUnits fu;  // 2 ports
  std::uint32_t lat = 0;
  EXPECT_TRUE(fu.try_issue(OpClass::kLoad, 0, lat));
  EXPECT_TRUE(fu.try_issue(OpClass::kStore, 0, lat));
  EXPECT_FALSE(fu.try_issue(OpClass::kLoad, 0, lat));
  EXPECT_TRUE(fu.try_issue(OpClass::kLoad, 1, lat));
}

TEST(FunctionalUnits, ExtendMemPortBlocksNextCycle) {
  FunctionalUnits fu;
  std::uint32_t lat = 0;
  EXPECT_TRUE(fu.try_issue(OpClass::kLoad, 0, lat));
  fu.extend_mem_port(0, 2);  // 2-cycle ECC hit occupies the port
  EXPECT_TRUE(fu.try_issue(OpClass::kLoad, 0, lat));   // second port free
  fu.extend_mem_port(0, 2);
  EXPECT_FALSE(fu.try_issue(OpClass::kLoad, 1, lat));  // both still busy
  EXPECT_TRUE(fu.try_issue(OpClass::kLoad, 2, lat));
}

}  // namespace
}  // namespace icr::cpu
