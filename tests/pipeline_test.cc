#include "src/cpu/pipeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/icr_cache.h"
#include "src/core/scheme.h"
#include "src/mem/memory_hierarchy.h"
#include "src/util/rng.h"

namespace icr::cpu {
namespace {

using trace::Instruction;
using trace::OpClass;

// Replays a fixed vector of instructions in a loop.
class VectorTrace final : public trace::TraceSource {
 public:
  explicit VectorTrace(std::vector<Instruction> instrs)
      : instrs_(std::move(instrs)) {}
  Instruction next() override {
    Instruction i = instrs_[pos_ % instrs_.size()];
    ++pos_;
    return i;
  }

 private:
  std::vector<Instruction> instrs_;
  std::size_t pos_ = 0;
};

Instruction alu(std::uint64_t pc, std::int16_t dest, std::int16_t src = -1) {
  Instruction i;
  i.op = OpClass::kIntAlu;
  i.pc = pc;
  i.next_pc = pc + 4;
  i.dest = dest;
  i.src1 = src;
  return i;
}

struct Bundle {
  Bundle(std::vector<Instruction> instrs, core::Scheme scheme)
      : trace(std::move(instrs)),
        dl1(mem::l1d_geometry_default(), std::move(scheme), hierarchy),
        pipe(trace, dl1, hierarchy) {}
  mem::MemoryHierarchy hierarchy;
  VectorTrace trace;
  core::IcrCache dl1;
  Pipeline pipe;
};

TEST(Pipeline, IndependentAluStreamApproachesIssueWidth) {
  // 8 independent ALU ops round-robin over distinct dests, no sources.
  std::vector<Instruction> v;
  for (int i = 0; i < 8; ++i) v.push_back(alu(0x400000 + 4 * i, i % 8));
  Bundle b(v, core::Scheme::BaseP());
  const auto& s = b.pipe.run(20000);
  EXPECT_GT(s.ipc(), 3.0);
}

TEST(Pipeline, SerialChainLimitsIpcToOne) {
  // Every instruction consumes the previous one's result.
  std::vector<Instruction> v;
  for (int i = 0; i < 8; ++i) {
    v.push_back(alu(0x400000 + 4 * i, 1, 1));
  }
  Bundle b(v, core::Scheme::BaseP());
  const auto& s = b.pipe.run(20000);
  EXPECT_LT(s.ipc(), 1.1);
  EXPECT_GT(s.ipc(), 0.8);
}

TEST(Pipeline, LoadLatencyVisibleOnDependentChain) {
  // load -> dependent ALU -> load (same hot block) ... BaseP vs BaseECC.
  auto make = [] {
    std::vector<Instruction> v;
    Instruction ld;
    ld.op = OpClass::kLoad;
    ld.pc = 0x400000;
    ld.next_pc = 0x400004;
    ld.mem_addr = 0x10000;
    ld.dest = 1;
    ld.src1 = 2;
    v.push_back(ld);
    v.push_back(alu(0x400004, 2, 1));
    return v;
  };
  Bundle p(make(), core::Scheme::BaseP());
  Bundle e(make(), core::Scheme::BaseECC());
  const std::uint64_t cp = p.pipe.run(10000).cycles;
  const std::uint64_t ce = e.pipe.run(10000).cycles;
  // The chain alternates load(1 or 2 cycles) + alu(1): ECC must be visibly
  // slower, approaching 3/2.
  EXPECT_GT(static_cast<double>(ce) / cp, 1.25);
}

Instruction op(OpClass cls, std::uint64_t pc, std::int16_t dest,
               std::int16_t src = -1) {
  Instruction i = alu(pc, dest, src);
  i.op = cls;
  return i;
}

// Cycles the pipeline takes for `n` more instructions once warm (caches,
// predictor and window in steady state).
std::uint64_t steady_cycles(Pipeline& pipe, std::uint64_t n) {
  const std::uint64_t before = pipe.run(2000).cycles;
  return pipe.run(n).cycles - before;
}

TEST(Pipeline, ConsumerIssuesInTheCycleItsProducerCompletes) {
  // A chain of 3-cycle multiplies: each one issues the cycle its producer
  // writes back, so the chain runs at exactly the multiply latency. A lost
  // writeback->issue skew would show as 4 cycles per multiply.
  std::vector<Instruction> v;
  for (int i = 0; i < 8; ++i) {
    v.push_back(op(OpClass::kIntMul, 0x400000 + 4 * i, 1, 1));
  }
  Bundle b(v, core::Scheme::BaseP());
  EXPECT_EQ(steady_cycles(b.pipe, 3000), 3u * 3000);
}

TEST(Pipeline, UnpipelinedDividerBlocksSecondDivide) {
  // Independent divides share the one unpipelined int divider: each holds
  // it for its full 20-cycle latency, so they run 20 cycles apart.
  std::vector<Instruction> v;
  for (int i = 0; i < 8; ++i) {
    v.push_back(op(OpClass::kIntDiv, 0x400000 + 4 * i,
                   static_cast<std::int16_t>(i)));
  }
  Bundle b(v, core::Scheme::BaseP());
  EXPECT_EQ(steady_cycles(b.pipe, 200), 20u * 200);
}

TEST(Pipeline, EccHitHoldsMemoryPortForBothCycles) {
  // Independent loads to one hot word: BaseP's 1-cycle hits use each of the
  // two ports every cycle (2 loads/cycle); BaseECC's 2-cycle hits hold a
  // port for both cycles (1 load/cycle), not just delay the result.
  std::vector<Instruction> v;
  for (int i = 0; i < 8; ++i) {
    Instruction ld = op(OpClass::kLoad, 0x400000 + 4 * i,
                        static_cast<std::int16_t>(i));
    ld.mem_addr = 0x10000;
    v.push_back(ld);
  }
  Bundle p(v, core::Scheme::BaseP());
  Bundle e(v, core::Scheme::BaseECC());
  EXPECT_EQ(steady_cycles(p.pipe, 4000), 4000u / 2);
  EXPECT_EQ(steady_cycles(e.pipe, 4000), 4000u);
}

TEST(Pipeline, CommitsExactlyRequestedInstructions) {
  std::vector<Instruction> v{alu(0x400000, 1)};
  Bundle b(v, core::Scheme::BaseP());
  const auto& s = b.pipe.run(1234);
  EXPECT_GE(s.committed, 1234u);
  EXPECT_LT(s.committed, 1234u + 8);  // at most one extra commit group
}

// Emits a branch (with fresh-random or constant outcome) every 4th
// instruction; random outcomes are drawn per dynamic instance so no
// predictor can learn them.
class BranchyTrace final : public trace::TraceSource {
 public:
  explicit BranchyTrace(bool random) : random_(random), rng_(5) {}
  Instruction next() override {
    const std::uint64_t pc = 0x400000 + 4 * (pos_ % 64);
    ++pos_;
    if (pos_ % 4 == 0) {
      Instruction br;
      br.op = OpClass::kBranch;
      br.pc = pc;
      br.branch_taken = random_ ? rng_.bernoulli(0.5) : false;
      br.next_pc = br.branch_taken ? pc + 64 : pc + 4;
      return br;
    }
    return alu(pc, static_cast<std::int16_t>(pos_ % 8));
  }

 private:
  bool random_;
  Rng rng_;
  std::uint64_t pos_ = 0;
};

TEST(Pipeline, MispredictedBranchesCostCycles) {
  mem::MemoryHierarchy h1, h2;
  BranchyTrace good_trace(false), bad_trace(true);
  core::IcrCache d1(mem::l1d_geometry_default(), core::Scheme::BaseP(), h1);
  core::IcrCache d2(mem::l1d_geometry_default(), core::Scheme::BaseP(), h2);
  Pipeline good(good_trace, d1, h1);
  Pipeline bad(bad_trace, d2, h2);
  const std::uint64_t cg = good.run(30000).cycles;
  const std::uint64_t cb = bad.run(30000).cycles;
  EXPECT_GT(bad.stats().mispredicted_branches,
            good.stats().mispredicted_branches * 5 + 100);
  EXPECT_GT(cb, cg);
}

TEST(Pipeline, StoreToLoadForwardingWorks) {
  std::vector<Instruction> v;
  Instruction st;
  st.op = OpClass::kStore;
  st.pc = 0x400000;
  st.next_pc = 0x400004;
  st.mem_addr = 0x20000;
  st.store_value = 7;
  v.push_back(st);
  Instruction ld;
  ld.op = OpClass::kLoad;
  ld.pc = 0x400004;
  ld.next_pc = 0x400008;
  ld.mem_addr = 0x20000;
  ld.dest = 1;
  v.push_back(ld);
  Bundle b(v, core::Scheme::BaseP());
  const auto& s = b.pipe.run(5000);
  EXPECT_GT(s.forwarded_loads, 1000u);
  EXPECT_EQ(s.silent_corrupt_loads, 0u);
}

TEST(Pipeline, NoSilentCorruptionWithoutFaults) {
  // Mixed load/store stream over several blocks, end-to-end verified.
  std::vector<Instruction> v;
  for (int i = 0; i < 32; ++i) {
    Instruction m;
    m.op = (i % 3 == 0) ? OpClass::kStore : OpClass::kLoad;
    m.pc = 0x400000 + 4 * i;
    m.next_pc = m.pc + 4;
    m.mem_addr = 0x30000 + (i % 16) * 8;
    m.store_value = 1000 + i;
    m.dest = (i % 3 == 0) ? -1 : static_cast<std::int16_t>(i % 8);
    v.push_back(m);
  }
  Bundle b(v, core::Scheme::BaseP());
  const auto& s = b.pipe.run(50000);
  EXPECT_EQ(s.silent_corrupt_loads, 0u);
  EXPECT_EQ(s.unrecoverable_loads, 0u);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  auto run = [] {
    std::vector<Instruction> v;
    for (int i = 0; i < 16; ++i) {
      Instruction m;
      m.op = i % 4 == 0 ? OpClass::kLoad : OpClass::kIntAlu;
      m.pc = 0x400000 + 4 * i;
      m.next_pc = m.pc + 4;
      m.mem_addr = 0x40000 + i * 8;
      m.dest = i % 8;
      m.src1 = (i + 3) % 8;
      v.push_back(m);
    }
    Bundle b(v, core::Scheme::IcrPPS_S());
    return b.pipe.run(20000).cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(Pipeline, IcacheMissesStallFetch) {
  // A huge code footprint (jumping through many blocks) forces L1I misses.
  std::vector<Instruction> small{alu(0x400000, 1)};
  auto big = [] {
    std::vector<Instruction> v;
    for (int i = 0; i < 4096; ++i) {
      v.push_back(alu(0x400000 + 32ULL * i, 1));  // one per L1I block
    }
    return v;
  }();
  Bundle s(small, core::Scheme::BaseP());
  Bundle b(big, core::Scheme::BaseP());
  const std::uint64_t cs = s.pipe.run(20000).cycles;
  const std::uint64_t cb = b.pipe.run(20000).cycles;
  EXPECT_GT(cb, 2 * cs);
}

}  // namespace
}  // namespace icr::cpu
