// sampled_vs_full — wall-time and accuracy demo for checkpointed warmup +
// interval sampling (docs/SAMPLING.md). Not a paper figure: it runs the
// same (schemes x apps) campaign twice — full detail, then 5%-coverage
// sampling — and reports the speedup plus the worst per-metric relative
// error of the estimates. The speedup is bounded by the ratio of detailed
// to fast-forward host cost per instruction (docs/SAMPLING.md).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/sim/results_io.h"
#include "src/util/table.h"

using namespace icr;

namespace {

double relative_error(double estimate, double reference) {
  if (reference == 0.0) return estimate == 0.0 ? 0.0 : 1.0;
  return std::abs(estimate - reference) / std::abs(reference);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::print_header(
      "sampled_vs_full",
      "full-detail campaign vs 5%-coverage warmup+interval sampling");

  sim::CampaignSpec spec;
  spec.variants = {
      {"BaseP", core::Scheme::BaseP()},
      {"BaseECC", core::Scheme::BaseECC()},
      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
      {"ICR-ECC-PS(S)", core::Scheme::IcrEccPS_S()},
  };
  spec.apps = {trace::App::kGzip, trace::App::kVpr, trace::App::kMcf,
               trace::App::kVortex};
  spec.instructions = sim::default_instruction_count();

  const sim::CampaignRunner runner;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::CampaignResult full = runner.run(spec);
  const auto t1 = std::chrono::steady_clock::now();

  // 5% detailed coverage: warmup 5% of the budget (fast-forwarded), then 10
  // systematically placed windows of 0.5% each. Thin-window estimates trade
  // a little accuracy (see the error table) for the headline speedup.
  spec.sampling.warmup_instructions = spec.instructions / 20;
  spec.sampling.windows = 10;
  spec.sampling.window_width = spec.instructions / 200;
  const sim::CampaignResult sampled = runner.run(spec);
  const auto t2 = std::chrono::steady_clock::now();

  const double full_seconds = std::chrono::duration<double>(t1 - t0).count();
  const double sampled_seconds =
      std::chrono::duration<double>(t2 - t1).count();

  // Worst relative error per headline metric across the grid.
  struct Metric {
    const char* name;
    double (*value)(const sim::RunResult&);
  };
  const std::vector<Metric> metrics = {
      {"dL1 miss rate",
       [](const sim::RunResult& r) { return r.dl1.miss_rate(); }},
      {"replication ability",
       [](const sim::RunResult& r) { return r.dl1.replication_ability(); }},
      {"loads with replica",
       [](const sim::RunResult& r) {
         return r.dl1.loads_with_replica_fraction();
       }},
      {"execution cycles",
       [](const sim::RunResult& r) { return static_cast<double>(r.cycles); }},
      {"energy (nJ)",
       [](const sim::RunResult& r) { return r.energy.total_nj(); }},
  };
  TextTable table("worst relative error of sampled estimates",
                  {"metric", "max |error|"});
  for (const Metric& metric : metrics) {
    double worst = 0.0;
    for (std::size_t i = 0; i < full.cells.size(); ++i) {
      worst = std::max(worst,
                       relative_error(metric.value(sampled.cells[i].result),
                                      metric.value(full.cells[i].result)));
    }
    char cell[32];
    std::snprintf(cell, sizeof cell, "%.2f%%", 100.0 * worst);
    table.add_row({metric.name, cell});
  }
  table.print();

  const double speedup =
      sampled_seconds > 0.0 ? full_seconds / sampled_seconds : 0.0;
  double coverage = 0.0;
  for (const sim::CellResult& cell : sampled.cells) {
    coverage += cell.sampling.coverage();
  }
  coverage /= static_cast<double>(sampled.cells.empty()
                                      ? 1
                                      : sampled.cells.size());
  std::printf("full: %.2fs   sampled: %.2fs   speedup: %.1fx at %.1f%% "
              "detailed coverage\n",
              full_seconds, sampled_seconds, speedup, 100.0 * coverage);
  return 0;
}
