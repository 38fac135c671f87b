// Table 1: configuration parameters of the simulated superscalar system.
// The core is fixed at Table 1: its values are the constants of
// src/cpu/pipeline.h, functional_units.h and branch_predictor.h. The memory
// side comes from SimConfig::table1(). This bench prints both and exits 1
// if any of them drifts from the paper's parameters; ctest runs it as
// table1_configuration_matches_paper.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common/bench_common.h"
#include "src/cpu/pipeline.h"
#include "src/util/table.h"

using namespace icr;

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "Table 1 mismatch: %s\n", what);
    std::exit(1);
  }
}

std::string n(std::uint32_t value) { return std::to_string(value); }

}  // namespace

int main(int argc, char** argv) {
  icr::bench::init(argc, argv);
  using cpu::BranchPredictor;
  using cpu::FunctionalUnits;
  using cpu::Pipeline;
  const sim::SimConfig cfg = sim::SimConfig::table1();

  TextTable t("Table 1 — base configuration (paper values)",
              {"parameter", "value"});
  t.add_row({"Functional units",
             n(FunctionalUnits::kIntAlus) + " int ALU, " +
                 n(FunctionalUnits::kIntMulDivs) + " int mul/div, " +
                 n(FunctionalUnits::kFpAlus) + " FP ALU, " +
                 n(FunctionalUnits::kFpMulDivs) + " FP mul/div"});
  t.add_row({"LSQ size", n(Pipeline::kLsqSize) + " instructions"});
  t.add_row({"RUU size", n(Pipeline::kRuuSize) + " instructions"});
  t.add_row({"Issue width", n(Pipeline::kIssueWidth) + " instructions/cycle"});
  t.add_row({"L1 instruction cache", "16KB, 1-way, 32B blocks, 1 cycle"});
  t.add_row({"L1 data cache", "16KB, 4-way, 64B blocks, 1 cycle"});
  t.add_row({"L2 (unified)", "256KB, 4-way, 64B blocks, 6 cycles"});
  t.add_row({"Memory", n(cfg.hierarchy.memory_latency) + " cycle latency"});
  std::string predictor = "combined: ";
  predictor += n(BranchPredictor::kBimodalEntries / 1024) + "K bimodal + " +
               n(BranchPredictor::kTwoLevelEntries / 1024) + "K two-level (" +
               n(BranchPredictor::kHistoryBits) + "-bit hist) + meta";
  t.add_row({"Branch predictor", predictor});
  t.add_row({"BTB", n(BranchPredictor::kBtbEntries) + " entries, " +
                        n(BranchPredictor::kBtbWays) + "-way"});
  t.add_row({"Misprediction penalty",
             n(Pipeline::kMispredictPenalty) + " cycles"});
  t.add_row({"Write policy", "write-back (all caches)"});
  t.print();

  // Cross-check the constants and the configuration against the paper.
  check(Pipeline::kIssueWidth == 4, "issue width");
  check(Pipeline::kRuuSize == 16, "RUU size");
  check(Pipeline::kLsqSize == 8, "LSQ size");
  check(Pipeline::kMispredictPenalty == 3, "misprediction penalty");
  check(FunctionalUnits::kIntAlus == 4 && FunctionalUnits::kIntMulDivs == 1 &&
            FunctionalUnits::kFpAlus == 4 && FunctionalUnits::kFpMulDivs == 1,
        "functional units");
  check(cfg.dl1.size_bytes == 16 * 1024 && cfg.dl1.associativity == 4 &&
            cfg.dl1.line_bytes == 64,
        "dL1 geometry");
  check(cfg.hierarchy.l1i.size_bytes == 16 * 1024 &&
            cfg.hierarchy.l1i.associativity == 1 &&
            cfg.hierarchy.l1i.line_bytes == 32,
        "L1I geometry");
  check(cfg.hierarchy.l2.size_bytes == 256 * 1024 &&
            cfg.hierarchy.l2.associativity == 4 &&
            cfg.hierarchy.l2.line_bytes == 64,
        "L2 geometry");
  check(cfg.hierarchy.l2_latency == 6 && cfg.hierarchy.memory_latency == 100 &&
            cfg.hierarchy.l1i_latency == 1,
        "latencies");
  check(BranchPredictor::kBimodalEntries == 2048 &&
            BranchPredictor::kTwoLevelEntries == 1024 &&
            BranchPredictor::kHistoryBits == 8 &&
            BranchPredictor::kBtbEntries == 512 &&
            BranchPredictor::kBtbWays == 4,
        "branch predictor");
  std::printf("\nAll Table-1 parameters verified against the simulator's "
              "constants and configuration.\n");
  return 0;
}
