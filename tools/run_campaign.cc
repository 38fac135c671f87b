// run_campaign — campaign-scale driver for the ICR simulator.
//
// Expands a (schemes x apps x trials) grid into independent cells and runs
// them on a thread pool with deterministic per-cell seeding, then prints a
// summary table and writes the optional CSV/JSON exports. Per-cell metrics
// are bit-identical for any --threads value (docs/CAMPAIGN.md).
//
//   run_campaign                                  # all 10 schemes x 8 apps
//   run_campaign --schemes=BaseP,BaseECC --apps=vortex,mcf --trials=5
//   run_campaign --threads=1 --json=a.json       # a.json and b.json agree
//   run_campaign --threads=8 --json=b.json       # on every per-cell metric
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/prof.h"
#include "src/obs/prof_io.h"
#include "src/sim/campaign.h"
#include "src/sim/cli.h"
#include "src/sim/results_io.h"
#include "src/util/table.h"

using namespace icr;
using sim::cli::app_by_name;
using sim::cli::fault_by_name;
using sim::cli::number_flag;
using sim::cli::parse_flag;
using sim::cli::scheme_by_name;
using sim::cli::split_csv;

namespace {

constexpr const char* kProgram = "run_campaign";

struct Options {
  sim::cli::RunFlags run{kProgram};  // flags shared with icr_sim
  std::string schemes;  // comma list; empty = all ten paper schemes
  std::string apps;     // comma list; empty = all eight applications
  std::string trace_path;  // recorded trace replacing the app axis
  std::uint64_t shard_instructions = 0;  // interval width; 0 = one cell
  std::uint32_t trials = 1;
  unsigned threads = 0;  // 0 = ICR_SIM_THREADS or hardware concurrency
  std::uint64_t seed = 0x1C9CA37ULL;
  // Degraded-geometry sweep axes (docs/GEOMETRY.md).
  std::string dl1_sizes;      // comma list of dL1 sizes (K/M suffixes ok)
  std::string dl1_assocs;     // comma list of associativities
  std::string ways_disabled;  // comma list of disabled-way counts
  std::string csv_path;
  std::string json_path;
  bool no_timing = false;
  bool quiet = false;
  bool progress = false;
  // Per-cell reliability exports.
  std::string rel_csv;
  std::string rel_json;
  std::string rel_intervals;
};

void usage() {
  std::puts(
      "run_campaign — parallel (schemes x apps x trials) experiment grids\n"
      "  --schemes=A,B,..      scheme names (default: all ten paper schemes)\n"
      "  --apps=a,b,..         applications (default: all eight)\n"
      "  --trace=FILE          replay a recorded ICRT trace instead of the\n"
      "                        synthetic app axis; interval shards become\n"
      "                        the cells (docs/TRACES.md)\n"
      "  --shard-instructions=N  instructions per trace interval cell\n"
      "                        (default: one cell covering the whole "
      "budget)\n"
      "  --trials=N            repetitions per (scheme, app) cell "
      "(default 1)\n"
      "  --threads=N           worker threads (default: ICR_SIM_THREADS or "
      "hardware)\n"
      "  --seed=S              campaign base seed; per-cell seeds derive "
      "from it\n"
      "  --instructions=N      instructions per cell (default 1M)\n"
      "  --window=N            dead-block decay window applied to every "
      "scheme\n"
      "  --fault-model=M       random|adjacent|column|direct\n"
      "  --fault-prob=P        per-cycle injection probability (default 0)\n"
      "  --dl1-sizes=A,B,..    geometry sweep: dL1 sizes (e.g. 8K,16K,32K);\n"
      "                        crosses every scheme with every geometry cell\n"
      "                        and adds provenance columns (docs/GEOMETRY.md)\n"
      "  --dl1-assocs=A,B,..   geometry sweep: dL1 associativities\n"
      "  --ways-disabled=A,B,. geometry sweep: disabled ways per set (k of N)\n"
      "  --way-pattern=P       fixed|random — which ways each set disables\n"
      "  --way-seed=S          per-set draw seed for --way-pattern=random\n"
      "  --warmup=N            functionally warm caches/predictor for N\n"
      "                        instructions before measuring (docs/SAMPLING.md)\n"
      "  --sample-windows=K    measure K interval-sampling windows instead\n"
      "                        of the whole budget; metrics become weighted\n"
      "                        whole-run estimates with provenance columns\n"
      "  --sample-width=N      instructions per window (default: budget/10K)\n"
      "  --sample-mode=M       systematic|random window placement\n"
      "  --sample-seed=S       placement stream for --sample-mode=random\n"
      "  --csv=FILE            write per-cell results as CSV\n"
      "  --json=FILE           write campaign metadata + cells as JSON\n"
      "  --no-timing           omit threads/wall-time from the JSON so\n"
      "                        identical experiments export identical bytes\n"
      "  --quiet               skip the summary table\n"
      "  --progress            live completed/total + cells/sec + ETA on "
      "stderr\n"
      "\n"
      "Per-cell telemetry:\n"
      "  --stats-interval=N    per-cell telemetry every N instructions\n"
      "                        (implies --intervals-out=intervals.csv)\n"
      "  --intervals-out=FILE  write all cells' interval telemetry CSV\n"
      "  --heatmap-out=FILE    write all cells' replica-occupancy CSV\n"
      "  --trace-out=FILE      write all cells' NDJSON event trace\n"
      "  --trace-filter=LIST   categories: replication,eviction,fault,decay\n"
      "                        or 'all' (default)\n"
      "  --rel                 per-cell analytical reliability tracking\n"
      "                        (implies --rel-csv=rel.csv unless given)\n"
      "  --rel-csv=FILE        write per-cell vulnerability summary CSV\n"
      "  --rel-json=FILE       write per-cell reliability reports as JSON\n"
      "  --rel-intervals=FILE  write lifetime-interval taxonomy CSV\n"
      "  --prof                profile the campaign itself: host-side\n"
      "                        self-time table after the summary\n"
      "  --prof-out=FILE       write the capture as Chrome trace-event JSON\n"
      "                        (cells become spans; implies --prof)\n"
      "\n"
      "Seeding: trials > 1 (or an explicit --seed) derives each cell's\n"
      "workload and injection seeds via SplitMix64 from (seed, scheme,\n"
      "app, trial), so results never depend on thread count or schedule.");
}

// Comma list of unsigned values; K/M suffixes scale by 1024 (so
// --dl1-sizes=8K,16K reads naturally). Bare numbers pass through; anything
// else exits 2 naming `flag`.
std::vector<std::uint32_t> parse_u32_list(const char* flag,
                                          const std::string& csv) {
  std::vector<std::uint32_t> out;
  for (const std::string& item : split_csv(csv)) {
    const std::optional<std::uint32_t> value = sim::cli::parse_size(item);
    if (!value) sim::cli::bad_value(kProgram, flag, csv);
    out.push_back(*value);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (opt.run.parse(arg) ||
        number_flag(kProgram, arg, "--shard-instructions",
                    opt.shard_instructions) ||
        number_flag(kProgram, arg, "--trials", opt.trials) ||
        number_flag(kProgram, arg, "--threads", opt.threads)) {
      continue;
    }
    if (number_flag(kProgram, arg, "--seed", opt.seed, 0)) {
      seed_given = true;
    } else if (parse_flag(arg, "--schemes", value)) {
      opt.schemes = value;
    } else if (parse_flag(arg, "--apps", value)) {
      opt.apps = value;
    } else if (parse_flag(arg, "--trace", value)) {
      opt.trace_path = value;
    } else if (parse_flag(arg, "--dl1-sizes", value)) {
      opt.dl1_sizes = value;
    } else if (parse_flag(arg, "--dl1-assocs", value)) {
      opt.dl1_assocs = value;
    } else if (parse_flag(arg, "--ways-disabled", value)) {
      opt.ways_disabled = value;
    } else if (parse_flag(arg, "--csv", value)) {
      opt.csv_path = value;
    } else if (parse_flag(arg, "--json", value)) {
      opt.json_path = value;
    } else if (std::strcmp(arg, "--no-timing") == 0) {
      opt.no_timing = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      opt.quiet = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      opt.progress = true;
    } else if (parse_flag(arg, "--rel-csv", value)) {
      opt.rel_csv = value;
    } else if (parse_flag(arg, "--rel-json", value)) {
      opt.rel_json = value;
    } else if (parse_flag(arg, "--rel-intervals", value)) {
      opt.rel_intervals = value;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else {
      sim::cli::unknown_flag(kProgram, arg);
    }
  }
  sim::cli::RunFlags& run = opt.run;

  sim::CampaignSpec spec;
  spec.trials = opt.trials == 0 ? 1 : opt.trials;
  spec.base_seed = opt.seed;
  spec.instructions = run.instructions;
  spec.derive_seeds = spec.trials > 1 || seed_given;
  spec.config.fault_model = fault_by_name(run.fault_model);
  spec.config.fault_probability = run.fault_prob;
  spec.sampling = run.sampling();

  if (opt.schemes.empty()) {
    for (core::Scheme s : core::Scheme::all_paper_schemes()) {
      std::string label = s.name;
      spec.variants.emplace_back(std::move(label),
                                 s.with_decay_window(run.window));
    }
  } else {
    for (const std::string& name : split_csv(opt.schemes)) {
      spec.variants.emplace_back(
          name, scheme_by_name(name).with_decay_window(run.window));
    }
  }
  if (!opt.trace_path.empty()) {
    if (!opt.apps.empty()) {
      std::fprintf(stderr,
                   "--trace replaces the app axis with trace interval "
                   "shards; drop --apps\n");
      return 2;
    }
    spec.trace.path = opt.trace_path;
    spec.trace.shard_instructions = opt.shard_instructions;
    try {
      sim::resolve_trace_campaign(spec);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "run_campaign: %s\n", error.what());
      return 1;
    }
  } else if (opt.shard_instructions != 0) {
    std::fprintf(stderr, "--shard-instructions requires --trace=FILE\n");
    return 2;
  } else if (opt.apps.empty()) {
    spec.apps = trace::all_apps();
  } else {
    for (const std::string& name : split_csv(opt.apps)) {
      spec.apps.push_back(app_by_name(name));
    }
  }
  if (spec.variants.empty() ||
      (spec.apps.empty() && !spec.trace.enabled())) {
    std::fprintf(stderr, "empty scheme or app list\n");
    return 2;
  }

  // Geometry sweep: cross every scheme variant with the requested dL1
  // geometry/way-disable cells before the grid is hashed or sharded.
  if (!opt.dl1_sizes.empty() || !opt.dl1_assocs.empty() ||
      !opt.ways_disabled.empty()) {
    spec.geometry.pattern = sim::cli::way_pattern_by_name(run.way_pattern);
    spec.geometry.sizes = parse_u32_list("--dl1-sizes", opt.dl1_sizes);
    spec.geometry.assocs = parse_u32_list("--dl1-assocs", opt.dl1_assocs);
    spec.geometry.ways_disabled =
        parse_u32_list("--ways-disabled", opt.ways_disabled);
    spec.geometry.way_seed = run.way_seed;
    try {
      sim::expand_geometry_sweep(spec);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "run_campaign: %s\n", error.what());
      return 2;
    }
  }

  // Observability: interval sampling and/or event tracing per cell. The
  // options never enter the campaign config hash — telemetry must not
  // change any result.
  if (run.stats_interval != 0 && run.intervals_out.empty()) {
    run.intervals_out = "intervals.csv";
  }
  // Analytical reliability tracking: any rel export implies enabling the
  // tracker; --rel alone defaults to rel.csv. Like obs, rel options never
  // enter the config hash.
  const bool rel_export = !opt.rel_csv.empty() || !opt.rel_json.empty() ||
                          !opt.rel_intervals.empty();
  if (run.rel && !rel_export) opt.rel_csv = "rel.csv";
  spec.rel.enabled = run.rel || rel_export;
  spec.rel.probability = run.fault_prob;
  spec.obs = run.obs();

  sim::CampaignRunner runner(opt.threads);
  if (opt.progress) runner.with_progress(true);
  const std::size_t app_axis = spec.app_axis();
  std::printf("campaign: %zu scheme(s) x %zu %s x %u trial(s) = %zu "
              "cells on %u thread(s)\n",
              spec.variants.size(), app_axis,
              spec.trace.enabled() ? "trace shard(s)" : "app(s)", spec.trials,
              spec.cell_count(), runner.threads());

  if (run.prof) obs::prof::begin_capture();
  const sim::CampaignResult campaign = runner.run(spec);

  if (!opt.quiet) {
    // Summary: cycles per (scheme, app), averaged over trials.
    std::vector<std::string> columns = {"benchmark"};
    for (const auto& v : spec.variants) columns.push_back(v.label);
    TextTable table("execution cycles (mean over trials)",
                    std::move(columns));
    for (std::size_t a = 0; a < app_axis; ++a) {
      std::vector<double> row;
      for (std::size_t v = 0; v < spec.variants.size(); ++v) {
        double sum = 0.0;
        for (std::uint32_t t = 0; t < spec.trials; ++t) {
          sum += static_cast<double>(
              campaign.at(v, a, t, app_axis, spec.trials).result.cycles);
        }
        row.push_back(sum / static_cast<double>(spec.trials));
      }
      table.add_numeric_row(spec.trace.enabled()
                                ? sim::trace_shard_label(spec, a)
                                : trace::to_string(spec.apps[a]),
                            row, 0);
    }
    table.print();
  }

  if (spec.sampling.enabled() && !campaign.cells.empty()) {
    double coverage = 0.0;
    for (const sim::CellResult& cell : campaign.cells) {
      coverage += cell.sampling.coverage();
    }
    coverage /= static_cast<double>(campaign.cells.size());
    std::printf("sampling: warmup %llu, %u window(s) (%s), mean detailed "
                "coverage %.1f%% — metrics are estimates\n",
                static_cast<unsigned long long>(
                    spec.sampling.warmup_instructions),
                spec.sampling.windows, sim::to_string(spec.sampling.mode),
                100.0 * coverage);
  }
  std::printf("%zu cells in %.2fs wall (%.2f cells/sec), config hash "
              "%016llx, base seed %016llx\n",
              campaign.cells.size(), campaign.meta.wall_seconds,
              campaign.meta.cells_per_second,
              static_cast<unsigned long long>(campaign.meta.config_hash),
              static_cast<unsigned long long>(campaign.meta.base_seed));

  // Each export renders only when its path is set.
  const auto write = [](const std::string& path, const auto& render) {
    if (path.empty()) return;
    sim::write_text_file(path, render());
    std::printf("wrote %s\n", path.c_str());
  };
  try {
    write(opt.csv_path, [&] { return sim::to_csv(campaign); });
    write(opt.json_path,
          [&] { return sim::to_json(campaign, !opt.no_timing); });
    write(run.intervals_out, [&] { return sim::intervals_to_csv(campaign); });
    write(run.heatmap_out, [&] { return sim::occupancy_to_csv(campaign); });
    write(run.trace_out, [&] { return sim::trace_to_ndjson(campaign); });
    write(opt.rel_csv, [&] { return sim::rel_to_csv(campaign); });
    write(opt.rel_json, [&] { return sim::rel_to_json(campaign); });
    write(opt.rel_intervals,
          [&] { return sim::rel_intervals_to_csv(campaign); });
  } catch (const std::exception& error) {
    std::fprintf(stderr, "export failed: %s\n", error.what());
    return 1;
  }

  // Capture ends after the exports so ResultsIO zones are included; each
  // campaign cell shows up as a labelled span in the trace.
  if (run.prof) {
    const obs::prof::Profile profile = obs::prof::end_capture();
    std::fputs(obs::prof::format_self_time_table(profile).c_str(), stdout);
    if (!run.prof_out.empty()) {
      try {
        sim::write_text_file(
            run.prof_out, obs::prof::to_chrome_trace(profile, "run_campaign"));
        std::printf("wrote host profile to %s (open in Perfetto)\n",
                    run.prof_out.c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "profile export failed: %s\n", error.what());
        return 1;
      }
    }
  }
  return 0;
}
