// Absolute golden outputs of the out-of-order pipeline.
//
// Every other pipeline guard is relative (obs on/off, 1 vs N threads), so
// a scheduler change that shifts a single cycle would pass them all. This test pins what the simulator actually computes for a
// small grid: the full PipelineStats and the FNV-1a digest of the whole
// sim::counter_vector (every cache, predictor, fault and energy counter).
//
// On a mismatch it reports the first diverging (cell, counter, want, got)
// and prints the row the current code produces, in the table's own syntax.
// Only regenerate the table when a change is meant to alter simulated
// behaviour, and say so in the change description.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/scheme.h"
#include "src/fault/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"

namespace icr::sim {
namespace {

constexpr std::uint64_t kInstructions = 20000;

// mesa with every 8th FP multiply turned into an FP divide and every 4th
// integer multiply into an integer divide: no generator emits divides, and
// the unpipelined dividers are a distinct scheduler path.
class WithDivides final : public trace::TraceSource {
 public:
  WithDivides() : inner_(trace::profile_for(trace::App::kMesa)) {}
  trace::Instruction next() override {
    trace::Instruction i = inner_.next();
    if (i.op == trace::OpClass::kFpMul && ++fp_muls_ % 8 == 0) {
      i.op = trace::OpClass::kFpDiv;
    } else if (i.op == trace::OpClass::kIntMul && ++int_muls_ % 4 == 0) {
      i.op = trace::OpClass::kIntDiv;
    }
    return i;
  }

 private:
  trace::SyntheticWorkload inner_;
  std::uint64_t fp_muls_ = 0;
  std::uint64_t int_muls_ = 0;
};

struct Golden {
  const char* cell;
  // cpu::PipelineStats in declaration order (kStatNames).
  std::uint64_t stats[10];
  std::uint64_t digest;  // FNV-1a 64 of sim::counter_vector
};

constexpr const char* kStatNames[10] = {
    "cycles",          "committed",          "loads",
    "stores",          "branches",           "mispredicted_branches",
    "forwarded_loads", "fetch_stall_cycles", "silent_corrupt_loads",
    "unrecoverable_loads"};

std::vector<std::uint64_t> stats_of(const cpu::PipelineStats& s) {
  return {s.cycles,          s.committed,
          s.loads,           s.stores,
          s.branches,        s.mispredicted_branches,
          s.forwarded_loads, s.fetch_stall_cycles,
          s.silent_corrupt_loads, s.unrecoverable_loads};
}

std::uint64_t digest(const RunResult& r) {
  const std::vector<std::uint64_t> c = counter_vector(r);
  return trace::fnv1a64(reinterpret_cast<const std::uint8_t*>(c.data()),
                        c.size() * sizeof(std::uint64_t));
}

// Compares one cell against its pinned row; reports the first divergence.
void expect_golden(const Golden& want, const RunResult& got) {
  const std::vector<std::uint64_t> stats = stats_of(got.pipeline);
  const std::uint64_t got_digest = digest(got);
  std::string row = std::string("{\"") + want.cell + "\", {";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    row += (i ? ", " : "") + std::to_string(stats[i]);
  }
  char tail[48];
  std::snprintf(tail, sizeof tail, "}, 0x%016" PRIx64 "ull},", got_digest);
  row += tail;

  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i] != want.stats[i]) {
      ADD_FAILURE() << "first divergence: cell " << want.cell << ", counter "
                    << kStatNames[i] << ", want " << want.stats[i] << ", got "
                    << stats[i] << "\n  current row: " << row;
      return;
    }
  }
  if (got_digest != want.digest) {
    ADD_FAILURE() << "first divergence: cell " << want.cell
                  << ", counter counter_vector digest, want 0x" << std::hex
                  << want.digest << ", got 0x" << got_digest << std::dec
                  << "\n  current row: " << row;
  }
}

core::Scheme scheme_named(const std::string& name) {
  if (name == "BaseP") return core::Scheme::BaseP();
  if (name == "BaseECC") return core::Scheme::BaseECC();
  if (name == "ICR-P-PS(S)") return core::Scheme::IcrPPS_S();
  if (name == "ICR-ECC-PP(LS)") return core::Scheme::IcrEccPP_LS();
  if (name == "ICR-P-PS(LS)") return core::Scheme::IcrPPS_LS();
  // Fig. 16: write-through dL1 with an 8-entry write buffer.
  if (name == "BaseP+WT8") return core::Scheme::BaseP().with_write_through();
  // Background scrubbing: one set every 40 cycles.
  if (name == "ICR-P-PS(LS)+scrub") {
    return core::Scheme::IcrPPS_LS().with_scrubbing(40);
  }
  // Scrubbing one set every cycle, so scrubber steps and injections share
  // cycles and sets often.
  if (name == "ICR-P-PS(LS)+scrub1") {
    return core::Scheme::IcrPPS_LS().with_scrubbing(1);
  }
  // §5.6 performance mode: replicas outlive their primary's eviction.
  if (name == "ICR-P-PS(S)+leave") {
    return core::Scheme::IcrPPS_S().with_leave_replicas(true);
  }
  if (name == "ICR-ECC-PS(LS)+scrub") {
    return core::Scheme::IcrEccPS_LS().with_scrubbing(40);
  }
  ADD_FAILURE() << "unknown scheme " << name;
  return core::Scheme::BaseP();
}

std::unique_ptr<Simulator> make_sim(const std::string& scheme,
                                    const std::string& app,
                                    SimConfig config = SimConfig::table1()) {
  if (app == "mesa+div") {
    return std::make_unique<Simulator>(config, scheme_named(scheme),
                                       std::make_unique<WithDivides>(), app);
  }
  const trace::App a = app == "gcc"      ? trace::App::kGcc
                       : app == "mcf"    ? trace::App::kMcf
                       : app == "vortex" ? trace::App::kVortex
                       : app == "vpr"    ? trace::App::kVpr
                                         : trace::App::kParser;
  return std::make_unique<Simulator>(config, scheme_named(scheme),
                                     trace::profile_for(a));
}

// {scheme} x {app}, 20k detailed instructions each, Table-1 core.
constexpr Golden kGrid[] = {
    {"BaseP/gcc",
     {83085, 20002, 6313, 2626, 3582, 508, 27, 40711, 0, 0},
     0x863d1d3f28c482b6ull},
    {"BaseP/mcf",
     {301451, 20001, 7308, 1553, 2402, 383, 13, 117275, 0, 0},
     0xc40bd57cefaecec7ull},
    {"BaseP/mesa+div",
     {51473, 20000, 6183, 1669, 1565, 235, 0, 23595, 0, 0},
     0xcdc8a419a259c44aull},
    {"ICR-P-PS(S)/gcc",
     {83733, 20002, 6313, 2626, 3582, 508, 27, 41030, 0, 0},
     0xad35bcff48dd2ec0ull},
    {"ICR-P-PS(S)/mcf",
     {302063, 20001, 7308, 1553, 2402, 383, 13, 117533, 0, 0},
     0x41af1ca7280a02d8ull},
    {"ICR-P-PS(S)/mesa+div",
     {54531, 20000, 6183, 1669, 1565, 235, 0, 24158, 0, 0},
     0xf31078be0cf04bb0ull},
    {"ICR-ECC-PP(LS)/gcc",
     {89519, 20002, 6313, 2626, 3582, 508, 23, 43704, 0, 0},
     0x9f0e2d86033e0b3eull},
    {"ICR-ECC-PP(LS)/mcf",
     {307781, 20001, 7308, 1553, 2402, 383, 11, 119763, 0, 0},
     0xd2256c6a126fc5b2ull},
    {"ICR-ECC-PP(LS)/mesa+div",
     {62339, 20000, 6183, 1669, 1565, 235, 0, 25890, 0, 0},
     0xc7c290cbe775a7cdull},
    {"BaseP+WT8/gcc",
     {87655, 20002, 6313, 2626, 3582, 508, 27, 42841, 0, 0},
     0xfeaf56ab5a7ab00aull},
    {"BaseP+WT8/mcf",
     {304527, 20001, 7308, 1553, 2402, 383, 13, 118420, 0, 0},
     0xe4e4be81541d7a14ull},
    {"BaseP+WT8/mesa+div",
     {52810, 20000, 6183, 1669, 1565, 235, 0, 23923, 0, 0},
     0x534da13b197bc9f2ull},
    // Commit blocks on write-buffer stalls while the core is otherwise idle.
    {"BaseP+WT8/vortex",
     {62817, 20000, 6634, 3035, 2796, 368, 44, 26877, 0, 0},
     0x39b4652584c7f2c9ull},
};

TEST(PipelineGolden, DetailedGrid) {
  for (const Golden& g : kGrid) {
    const std::string cell = g.cell;
    const std::size_t slash = cell.find('/');
    auto sim = make_sim(cell.substr(0, slash), cell.substr(slash + 1));
    expect_golden(g, sim->run(kInstructions));
  }
}

// A write-through store stalls commit while the rest of the core idles, so
// the idle-cycle skip must wake at the end of the commit block. Skipping
// past it shifts this cell's counters (the BaseP+WT8/vortex grid cell hits
// the deadlock guard instead).
TEST(PipelineGolden, WriteThroughCommitBlockCell) {
  constexpr Golden kWant = {
      "BaseP+WT8/vpr 50k",
      {74265, 50002, 16424, 5925, 7011, 852, 69, 32160, 0, 0},
      0x7e15b691ee165b57ull};
  expect_golden(kWant, make_sim("BaseP+WT8", "vpr")->run(50000));
}

// Detailed -> functional -> detailed: the fast-forward drains the in-flight
// window with fetch frozen, then the second detailed leg refills an empty
// window.
TEST(PipelineGolden, SampledCell) {
  constexpr Golden kWant = {
      "sampled ICR-P-PS(S)/gcc",
      {95318, 20002, 6313, 2626, 3582, 508, 14, 28233, 0, 0},
      0xa3b0f417e53aebc7ull};
  auto sim = make_sim("ICR-P-PS(S)", "gcc");
  sim->run(6000);
  sim->fast_forward(8000);
  expect_golden(kWant, sim->run(6000));
}

// Faults and scrubbing through a fast-forward: the functional clock must
// draw and scrub cycle by cycle exactly as the detailed loop does.
TEST(PipelineGolden, SampledCellWithFaultsAndScrubbing) {
  constexpr Golden kWant = {
      "sampled faults ICR-P-PS(LS)+scrub/vortex",
      {82748, 20000, 6634, 3035, 2796, 368, 22, 18336, 2, 0},
      0x0659e02a307eabcaull};
  SimConfig config = SimConfig::table1();
  config.fault_probability = 1e-3;
  auto sim = make_sim("ICR-P-PS(LS)+scrub", "vortex", config);
  sim->run(5000);
  sim->fast_forward(10000);
  const RunResult r = sim->run(5000);
  EXPECT_GT(r.faults.injections, 0u);
  EXPECT_GT(r.dl1.scrub_lines_checked, 0u);
  expect_golden(kWant, r);
}

// The fast-forward clock, where its cycles' events collide: at 2e-2 faults
// per cycle and a scrubber step every cycle, injections land in the set the
// scrubber visits that same cycle, and the per-cycle order (inject, then
// scrub) decides whether the scrubber repairs the fault at once.
TEST(PipelineGolden, SampledCellWithCollidingFaultsAndScrubs) {
  constexpr Golden kWant = {
      "sampled collisions ICR-P-PS(LS)+scrub1/gcc",
      {172539, 24001, 7590, 3122, 4302, 587, 6, 14700, 130, 35},
      0x1e2f85ade7cc3dbbull};
  SimConfig config = SimConfig::table1();
  config.fault_probability = 2e-2;
  auto sim = make_sim("ICR-P-PS(LS)+scrub1", "gcc", config);
  sim->run(2000);
  sim->fast_forward(20000);
  const RunResult r = sim->run(2000);
  EXPECT_GT(r.faults.injections, 1000u);
  expect_golden(kWant, r);
}

// Random single-bit faults at 1e-3 per cycle (Fig. 14), so the injector's
// per-cycle RNG draws and the recovery ladder are pinned too.
TEST(PipelineGolden, FaultInjectedCell) {
  constexpr Golden kWant = {
      "faults ICR-P-PS(LS)/parser",
      {67164, 20000, 6612, 2401, 3184, 451, 29, 31784, 15, 4},
      0xf7792c2b3d92058cull};
  SimConfig config = SimConfig::table1();
  config.fault_probability = 1e-3;
  auto sim = make_sim("ICR-P-PS(LS)", "parser", config);
  const RunResult r = sim->run(kInstructions);
  EXPECT_GT(r.faults.injections, 0u);
  expect_golden(kWant, r);
}

// The rungs of the recovery ladder the other cells do not reach: a miss
// served by an orphan replica, the R-Cache behind a parity error and behind
// a SEC-DED double-bit error, and the scrubber under an ECC scheme.
struct LadderCell {
  Golden want;
  const char* scheme;
  const char* app;
  fault::FaultModel model;
  double probability;
  std::uint32_t rcache_entries;
  // The counter of the rung the cell exists for; must end up nonzero.
  std::uint64_t core::IcrStats::*rung;
};

TEST(PipelineGolden, RecoveryLadderCells) {
  const LadderCell cells[] = {
      {{"faults ICR-P-PS(S)+leave/mcf",
        {302064, 20001, 7308, 1553, 2402, 383, 13, 117524, 34, 5},
        0x76beb0313870e6f9ull},
       "ICR-P-PS(S)+leave", "mcf", fault::FaultModel::kRandom, 1e-3, 0,
       &core::IcrStats::replica_fills},
      {{"faults BaseP+RC64/parser",
        {65442, 20000, 6612, 2401, 3184, 451, 29, 31046, 17, 12},
        0xd877df1740882d6full},
       "BaseP", "parser", fault::FaultModel::kRandom, 1e-3, 64,
       &core::IcrStats::errors_corrected_by_rcache},
      {{"adjacent faults BaseECC+RC64/vortex",
        {63859, 20000, 6634, 3035, 2796, 368, 30, 27114, 24, 21},
        0x52554728e68b963aull},
       "BaseECC", "vortex", fault::FaultModel::kAdjacent, 2e-3, 64,
       &core::IcrStats::errors_corrected_by_rcache},
      {{"adjacent faults ICR-ECC-PS(LS)+scrub/gcc",
        {84761, 20002, 6313, 2626, 3582, 508, 27, 41490, 49, 1},
        0xe12b69a2227b2dffull},
       "ICR-ECC-PS(LS)+scrub", "gcc", fault::FaultModel::kAdjacent, 2e-3, 0,
       &core::IcrStats::scrub_corrections},
  };
  for (const LadderCell& c : cells) {
    SimConfig config = SimConfig::table1();
    config.fault_model = c.model;
    config.fault_probability = c.probability;
    config.rcache_entries = c.rcache_entries;
    const RunResult r = make_sim(c.scheme, c.app, config)->run(kInstructions);
    EXPECT_GT(r.dl1.*c.rung, 0u) << c.want.cell;
    expect_golden(c.want, r);
  }
}

}  // namespace
}  // namespace icr::sim
