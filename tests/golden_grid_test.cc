// Absolute golden grid: every counter of every cell of the paper's grid.
//
// Two parts, one CSV (tests/golden/grid.csv), one row per cell holding the
// whole sim::counter_vector:
//   * all 10 paper schemes x 8 apps at 5,000 instructions, with the
//     calibrated profile seeds the figure benches use;
//   * a derived-seed campaign (derive_seeds, 2 trials) over
//     {BaseP, ICR-P-PS(S)} x {gcc, mcf}, run through run_campaign_cell, so
//     the seed of every variant, app and trial past the first is pinned.
//     The derived seed is part of the row label.
//
// The header names each counter (sim::counter_names). On a mismatch the
// test reports the first diverging (cell, counter name and index, want,
// got). Every run writes the CSV it produced to grid.actual.csv in
// the build tree; copying that file over tests/golden/grid.csv is how the
// golden is regenerated. Only do that when a change is meant to alter
// simulated behaviour, and say so in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/scheme.h"
#include "src/sim/campaign.h"
#include "src/sim/results_io.h"
#include "src/trace/workloads.h"

namespace icr::sim {
namespace {

constexpr std::uint64_t kInstructions = 5000;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

// One CSV row per cell of `spec`, in grid order.
void append_rows(const CampaignSpec& spec, bool label_seed, std::string& csv) {
  for (std::size_t v = 0; v < spec.variants.size(); ++v) {
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      for (std::size_t t = 0; t < spec.trials; ++t) {
        const CellResult cell =
            run_campaign_cell(spec, v, a, t, spec.instructions);
        std::string row = spec.variants[v].label + "/" +
                          trace::to_string(spec.apps[a]);
        if (label_seed) {
          char seed[40];
          std::snprintf(seed, sizeof seed, "/t%zu/seed=0x%016llx", t,
                        static_cast<unsigned long long>(cell.cell.seed));
          row += seed;
        }
        for (const std::uint64_t c : counter_vector(cell.result)) {
          row += ',';
          row += std::to_string(c);
        }
        csv += row + "\n";
      }
    }
  }
}

std::string produce_grid() {
  CampaignSpec paper;
  for (const core::Scheme& s : core::Scheme::all_paper_schemes()) {
    paper.variants.emplace_back(s.name, s);
  }
  paper.apps = trace::all_apps();
  paper.instructions = kInstructions;

  CampaignSpec derived;
  derived.variants = {{"BaseP", core::Scheme::BaseP()},
                      {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()}};
  derived.apps = {trace::App::kGcc, trace::App::kMcf};
  derived.instructions = kInstructions;
  derived.trials = 2;
  derived.derive_seeds = true;

  std::string csv = "cell";
  for (const std::string& name : counter_names()) {
    csv += ',';
    csv += name;
  }
  csv += '\n';
  append_rows(paper, false, csv);
  append_rows(derived, true, csv);
  return csv;
}

TEST(GoldenGrid, PaperGridAndDerivedSeedCampaignMatchTheGolden) {
  const std::string got = produce_grid();
  write_text_file(ICR_GRID_ACTUAL, got);

  std::ifstream in(ICR_GRID_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << ICR_GRID_GOLDEN << "; the current grid is "
                  << ICR_GRID_ACTUAL;
  std::stringstream want_text;
  want_text << in.rdbuf();

  const std::vector<std::string> want_rows = split(want_text.str(), '\n');
  const std::vector<std::string> got_rows = split(got, '\n');
  for (std::size_t r = 0; r < want_rows.size() && r < got_rows.size(); ++r) {
    if (want_rows[r] == got_rows[r]) continue;
    const std::vector<std::string> want = split(want_rows[r], ',');
    const std::vector<std::string> row = split(got_rows[r], ',');
    if (want.front() != row.front()) {
      FAIL() << "row " << r << ": want cell " << want.front() << ", got cell "
             << row.front() << " (the current grid is " << ICR_GRID_ACTUAL
             << ")";
    }
    for (std::size_t i = 1; i < want.size() || i < row.size(); ++i) {
      const std::string w = i < want.size() ? want[i] : "(none)";
      const std::string g = i < row.size() ? row[i] : "(none)";
      if (w != g) {
        const std::vector<std::string> names = counter_names();
        FAIL() << "first divergence: cell " << row.front() << ", counter "
               << (i - 1 < names.size() ? names[i - 1] : "(none)")
               << " (index " << i - 1 << "), want " << w << ", got " << g
               << " (the current grid is " << ICR_GRID_ACTUAL << ")";
      }
    }
  }
  EXPECT_EQ(got_rows.size(), want_rows.size())
      << "row count differs (the current grid is " << ICR_GRID_ACTUAL << ")";
}

}  // namespace
}  // namespace icr::sim
