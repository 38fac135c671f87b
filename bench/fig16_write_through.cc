// Fig. 16: write-through BaseP (8-entry coalescing write buffer) vs
// write-back ICR-P-PS(S), normalized to ICR-P-PS(S).
//   (a) execution cycles — paper: write-through ~5.7% slower on average;
//   (b) L1+L2 dynamic energy — paper: write-through costs more than 2x.
#include "bench/common/bench_common.h"

using namespace icr;

int main(int argc, char** argv) {
  icr::bench::init(argc, argv);
  const core::Scheme icr_scheme =
      core::Scheme::IcrPPS_S()
          .with_decay_window(1000)
          .with_victim_policy(core::ReplicaVictimPolicy::kDeadFirst);
  const core::Scheme wt = core::Scheme::BaseP().with_write_through();

  bench::print_header(
      "Fig. 16",
      "Write-through BaseP (8-entry coalescing buffer) normalized to "
      "write-back ICR-P-PS(S)");

  const auto apps = trace::all_apps();
  const auto m = sim::run_matrix(
      {{"ICR-P-PS(S) wb", icr_scheme}, {"BaseP wt", wt}}, apps);

  TextTable t("Fig. 16 — BaseP(write-through) / ICR-P-PS(S)(write-back)",
              {"benchmark", "(a) norm. cycles", "(b) norm. L1+L2 energy"});
  double sc = 0, se = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double c = sim::normalized_cycles(m[1][a], m[0][a]);
    const double e = sim::normalized_energy(m[1][a], m[0][a]);
    sc += c;
    se += e;
    t.add_numeric_row(trace::to_string(apps[a]), {c, e});
  }
  const double n = static_cast<double>(apps.size());
  t.add_numeric_row("average", {sc / n, se / n});
  t.print();

  std::printf("\nValues > 1 mean the write-through cache is slower / burns "
              "more energy than ICR-P-PS(S).\n");
  return 0;
}
