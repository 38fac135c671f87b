// icr_report — renders observability exports as human-readable tables.
//
// Consumes the files written by icr_sim / run_campaign:
//
//   icr_report intervals.csv            per-cell summary + phase tables
//   icr_report --heatmap occupancy.csv  ASCII replica-occupancy heatmap
//
// The interval CSV schema is documented in src/obs/obs_io.h and
// docs/OBSERVABILITY.md; this tool only relies on named header columns, so
// it keeps working when new counters are added to the registry.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/obs/obs_io.h"
#include "src/obs/prof_io.h"
#include "src/util/table.h"

using namespace icr;

namespace {

struct Csv {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) comma = line.size();
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

Csv read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "icr_report: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  Csv csv;
  std::string line;
  if (std::getline(in, line)) csv.columns = split_line(line);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    csv.rows.push_back(split_line(line));
  }
  return csv;
}

std::size_t column_index(const Csv& csv, const char* name) {
  for (std::size_t i = 0; i < csv.columns.size(); ++i) {
    if (csv.columns[i] == name) return i;
  }
  return static_cast<std::size_t>(-1);
}

std::size_t require_column(const Csv& csv, const char* name,
                           const char* path) {
  const std::size_t idx = column_index(csv, name);
  if (idx == static_cast<std::size_t>(-1)) {
    std::fprintf(stderr, "icr_report: '%s' has no '%s' column\n", path, name);
    std::exit(2);
  }
  return idx;
}

double field_double(const std::vector<std::string>& row, std::size_t idx) {
  if (idx == static_cast<std::size_t>(-1) || idx >= row.size()) return 0.0;
  return std::atof(row[idx].c_str());
}

// Cell key in first-appearance order: "variant,app,trial" verbatim.
std::vector<std::pair<std::string, std::vector<std::size_t>>> group_cells(
    const Csv& csv) {
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups;
  std::map<std::string, std::size_t> index;
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    const auto& row = csv.rows[r];
    if (row.size() < 3) continue;
    const std::string key = row[0] + " / " + row[1] + " / trial " + row[2];
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, groups.size()).first;
      groups.emplace_back(key, std::vector<std::size_t>{});
    }
    groups[it->second].second.push_back(r);
  }
  return groups;
}

int report_intervals(const std::string& path) {
  const Csv csv = read_csv(path);
  struct Cols {
    std::size_t instr_end, d_instructions, d_cycles, ipc, miss_rate,
        replication_ability, d_loads, d_stores, d_opportunities;
  };
  const Cols c = {
      require_column(csv, "instr_end", path.c_str()),
      require_column(csv, "d_instructions", path.c_str()),
      require_column(csv, "d_cycles", path.c_str()),
      require_column(csv, "ipc", path.c_str()),
      require_column(csv, "dl1_miss_rate", path.c_str()),
      require_column(csv, "replication_ability", path.c_str()),
      column_index(csv, "d_dl1.loads"),
      column_index(csv, "d_dl1.stores"),
      column_index(csv, "d_dl1.replication.opportunities"),
  };

  const auto groups = group_cells(csv);
  if (groups.empty()) {
    std::printf("no interval rows in %s\n", path.c_str());
    return 0;
  }

  for (const auto& [key, row_indices] : groups) {
    std::vector<obs::IntervalPoint> pts;
    pts.reserve(row_indices.size());
    for (const std::size_t r : row_indices) {
      const auto& row = csv.rows[r];
      obs::IntervalPoint p;
      p.instr_end = field_double(row, c.instr_end);
      p.d_instructions = field_double(row, c.d_instructions);
      p.d_cycles = field_double(row, c.d_cycles);
      p.ipc = field_double(row, c.ipc);
      p.miss_rate = field_double(row, c.miss_rate);
      p.miss_weight =
          field_double(row, c.d_loads) + field_double(row, c.d_stores);
      p.replication_ability = field_double(row, c.replication_ability);
      p.replication_weight = field_double(row, c.d_opportunities);
      pts.push_back(p);
    }

    const obs::IntervalSummary s = obs::summarize(pts);
    TextTable t(key + " — " + std::to_string(s.intervals) + " intervals",
                {"metric", "mean", "peak", "final"});
    t.add_row({"dL1 miss rate", format_double(s.mean_miss_rate, 4),
               format_double(s.peak_miss_rate, 4),
               format_double(s.final_miss_rate, 4)});
    t.add_row({"replication ability",
               format_double(s.mean_replication_ability, 3),
               format_double(s.peak_replication_ability, 3),
               format_double(s.final_replication_ability, 3)});
    t.add_row({"IPC", format_double(s.mean_ipc, 3), "-", "-"});
    t.print();

    const auto phases = obs::segment_phases(pts);
    TextTable p(key + " — phases (miss-rate segmentation)",
                {"phase", "intervals", "instr span", "miss rate",
                 "repl ability", "IPC"});
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const obs::Phase& ph = phases[i];
      const double span_begin =
          pts[ph.first_interval].instr_end - pts[ph.first_interval].d_instructions;
      const double span_end = pts[ph.last_interval].instr_end;
      char span[48];
      std::snprintf(span, sizeof span, "%.0f..%.0f", span_begin, span_end);
      p.add_row({std::to_string(i),
                 std::to_string(ph.first_interval) + ".." +
                     std::to_string(ph.last_interval),
                 span, format_double(ph.mean_miss_rate, 4),
                 format_double(ph.mean_replication_ability, 3),
                 format_double(ph.mean_ipc, 3)});
    }
    p.print();
  }
  return 0;
}

int report_heatmap(const std::string& path) {
  const Csv csv = read_csv(path);
  const std::size_t instr_idx = require_column(csv, "instr_end", path.c_str());
  const std::size_t first_set = require_column(csv, "set_0", path.c_str());
  const std::size_t sets = csv.columns.size() - first_set;

  static const char kShades[] = " .:-=+*#%@";
  const auto groups = group_cells(csv);
  if (groups.empty()) {
    std::printf("no occupancy rows in %s\n", path.c_str());
    return 0;
  }

  for (const auto& [key, row_indices] : groups) {
    double peak = 0.0;
    for (const std::size_t r : row_indices) {
      for (std::size_t s = 0; s < sets; ++s) {
        peak = std::max(peak, field_double(csv.rows[r], first_set + s));
      }
    }
    std::printf("\n%s — replica occupancy, %zu sets x %zu intervals, peak "
                "%.0f replicas/set (scale '%s')\n",
                key.c_str(), sets, row_indices.size(), peak, kShades);
    for (const std::size_t r : row_indices) {
      std::string line;
      line.reserve(sets);
      for (std::size_t s = 0; s < sets; ++s) {
        const double v = field_double(csv.rows[r], first_set + s);
        std::size_t shade = 0;
        if (peak > 0.0) {
          shade = static_cast<std::size_t>(v / peak * 9.0 + 0.5);
          if (shade > 9) shade = 9;
        }
        line += kShades[shade];
      }
      std::printf("%12.0f |%s|\n", field_double(csv.rows[r], instr_idx),
                  line.c_str());
    }
  }
  return 0;
}

int report_rel(const std::string& path) {
  const Csv csv = read_csv(path);
  const std::size_t exposure_idx =
      require_column(csv, "total_exposure", path.c_str());
  static const char* kStates[] = {"parity_clean",     "parity_dirty",
                                  "replicated_clean", "replicated_dirty",
                                  "ecc_clean",        "ecc_dirty"};
  struct Outcome {
    const char* label;
    const char* coef;
    const char* vf;
    const char* expected;
  };
  static const Outcome kOutcomes[] = {
      {"corrected", "coef_corrected", "vf_corrected", "expected_corrected"},
      {"replica recovered", "coef_replica_recovered", "vf_replica_recovered",
       "expected_replica_recovered"},
      {"detected uncorrectable", "coef_detected_uncorrectable",
       "vf_detected_uncorrectable", "expected_detected_uncorrectable"},
      {"silent", "coef_silent", nullptr, "expected_silent"},
  };

  const auto groups = group_cells(csv);
  if (groups.empty()) {
    std::printf("no reliability rows in %s\n", path.c_str());
    return 0;
  }
  const std::size_t prob_idx = column_index(csv, "probability");
  const std::size_t supported_idx = column_index(csv, "supported");

  for (const auto& [key, row_indices] : groups) {
    for (const std::size_t r : row_indices) {
      const auto& row = csv.rows[r];
      const double total = field_double(row, exposure_idx);
      const double p = field_double(row, prob_idx);
      std::string title = key + " — vulnerability breakdown";
      if (supported_idx != static_cast<std::size_t>(-1) &&
          field_double(row, supported_idx) == 0.0) {
        title += " [fault model unsupported]";
      }
      TextTable t(std::move(title),
                  {"exposure by state", "strikes/p", "share"});
      for (const char* state : kStates) {
        const double v =
            field_double(row, column_index(csv, (std::string("exp_") + state).c_str()));
        if (v == 0.0) continue;
        t.add_row({state, format_double(v, 4),
                   format_double(total > 0.0 ? v / total : 0.0, 4)});
      }
      t.add_row({"total", format_double(total, 4), "1.0"});
      t.print();

      TextTable o(key + " — first-order outcomes",
                  {"outcome", "coefficient", "vulnerability factor",
                   p > 0.0 ? "expected @ p" : "-"});
      for (const Outcome& out : kOutcomes) {
        const double coef = field_double(row, column_index(csv, out.coef));
        const double vf =
            out.vf != nullptr
                ? field_double(row, column_index(csv, out.vf))
                : 0.0;
        const double expected =
            field_double(row, column_index(csv, out.expected));
        o.add_row({out.label, format_double(coef, 4),
                   out.vf != nullptr ? format_double(vf, 4) : "-",
                   p > 0.0 ? format_double(expected, 4) : "-"});
      }
      const double vf_unc =
          field_double(row, column_index(csv, "vf_uncorrected"));
      o.add_row({"uncorrected (headline)", "-", format_double(vf_unc, 4),
                 "-"});
      o.print();
    }
  }
  return 0;
}

// `--sweep results.csv` — geometry sweep tables from a campaign results
// CSV exported with geometry provenance columns (run_campaign --dl1-sizes/
// --dl1-assocs/--ways-disabled, docs/GEOMETRY.md). One table per metric:
// rows are (size, assoc, disabled) geometry points, columns the base
// schemes, each cell the metric's mean over apps and trials.
int report_sweep(const std::string& path, const std::string& metric) {
  const Csv csv = read_csv(path);
  const std::size_t size_idx = require_column(csv, "dl1_size", path.c_str());
  const std::size_t assoc_idx = require_column(csv, "dl1_assoc", path.c_str());
  const std::size_t disabled_idx =
      require_column(csv, "ways_disabled", path.c_str());
  std::vector<std::string> metrics;
  if (!metric.empty()) {
    require_column(csv, metric.c_str(), path.c_str());
    metrics.push_back(metric);
  } else {
    for (const char* m : {"dl1_miss_rate", "replication_ability",
                          "unrecoverable_loads"}) {
      if (column_index(csv, m) != static_cast<std::size_t>(-1)) {
        metrics.push_back(m);
      }
    }
  }
  if (csv.rows.empty()) {
    std::printf("no result rows in %s\n", path.c_str());
    return 0;
  }

  // Base scheme = variant label with its "@size/assoc" suffix stripped.
  const auto base_of = [](const std::string& variant) {
    const std::size_t at = variant.rfind('@');
    return at == std::string::npos ? variant : variant.substr(0, at);
  };
  const auto geometry_of = [&](const std::vector<std::string>& row) {
    const std::uint64_t size =
        std::strtoull(row[size_idx].c_str(), nullptr, 10);
    const std::string size_text = size != 0 && size % 1024 == 0
                                      ? std::to_string(size / 1024) + "K"
                                      : std::to_string(size);
    return size_text + " / " + row[assoc_idx] + "-way / d" +
           row[disabled_idx];
  };

  // First-appearance order for both axes (matches grid order: geometry
  // varies within a base scheme, so geometries appear in expansion order).
  std::vector<std::string> schemes;
  std::vector<std::string> geometries;
  const auto ordinal = [](std::vector<std::string>& order,
                          const std::string& key) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == key) return i;
    }
    order.push_back(key);
    return order.size() - 1;
  };
  for (const auto& row : csv.rows) {
    if (row.size() <= disabled_idx) continue;
    ordinal(schemes, base_of(row[0]));
    ordinal(geometries, geometry_of(row));
  }

  for (const std::string& m : metrics) {
    const std::size_t m_idx = require_column(csv, m.c_str(), path.c_str());
    std::vector<std::vector<double>> sum(
        geometries.size(), std::vector<double>(schemes.size(), 0.0));
    std::vector<std::vector<std::uint64_t>> n(
        geometries.size(), std::vector<std::uint64_t>(schemes.size(), 0));
    for (const auto& row : csv.rows) {
      if (row.size() <= m_idx || row.size() <= disabled_idx) continue;
      const std::size_t g = ordinal(geometries, geometry_of(row));
      const std::size_t s = ordinal(schemes, base_of(row[0]));
      sum[g][s] += field_double(row, m_idx);
      ++n[g][s];
    }
    std::vector<std::string> header = {"size / assoc / disabled"};
    header.insert(header.end(), schemes.begin(), schemes.end());
    TextTable t(m + " — mean over apps x trials", header);
    for (std::size_t g = 0; g < geometries.size(); ++g) {
      std::vector<std::string> cells = {geometries[g]};
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        cells.push_back(n[g][s] != 0
                            ? format_double(sum[g][s] / n[g][s], 4)
                            : "-");
      }
      t.add_row(std::move(cells));
    }
    t.print();
  }
  return 0;
}

int report_prof(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "icr_report: cannot open '%s'\n", path.c_str());
    return 2;
  }
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  try {
    const obs::prof::ParsedTrace parsed = obs::prof::parse_chrome_trace(text);
    std::fputs(obs::prof::format_self_time_table(parsed.profile).c_str(),
               stdout);
    std::printf("%zu trace span(s) retained — open %s in Perfetto or "
                "chrome://tracing for the timeline\n",
                parsed.span_events, path.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_report: %s: %s\n", path.c_str(), error.what());
    return 2;
  }
}

void usage() {
  std::puts(
      "icr_report — render observability CSVs as text tables\n"
      "  icr_report [--intervals] FILE   per-cell summary + phase tables\n"
      "  icr_report --heatmap FILE       ASCII replica-occupancy heatmap\n"
      "  icr_report --rel FILE           per-cell vulnerability breakdown\n"
      "                                  (the rel summary CSV of run_campaign\n"
      "                                  --rel-csv / icr_sim --rel-out)\n"
      "  icr_report --sweep FILE         geometry sweep tables from a\n"
      "                                  campaign results CSV with geometry\n"
      "                                  columns (docs/GEOMETRY.md); narrow\n"
      "                                  with --metric=NAME\n"
      "  icr_report --prof FILE          host-profiler self-time table from\n"
      "                                  a --prof-out Chrome trace JSON\n");
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kIntervals, kHeatmap, kRel, kProf, kSweep };
  Mode mode = Mode::kIntervals;
  std::string path;
  std::string metric;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--heatmap") == 0) {
      mode = Mode::kHeatmap;
    } else if (std::strcmp(argv[i], "--intervals") == 0) {
      mode = Mode::kIntervals;
    } else if (std::strcmp(argv[i], "--rel") == 0) {
      mode = Mode::kRel;
    } else if (std::strcmp(argv[i], "--prof") == 0) {
      mode = Mode::kProf;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      mode = Mode::kSweep;
    } else if (std::strncmp(argv[i], "--metric=", 9) == 0) {
      metric = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n\n", argv[i]);
      usage();
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }
  switch (mode) {
    case Mode::kHeatmap: return report_heatmap(path);
    case Mode::kRel: return report_rel(path);
    case Mode::kProf: return report_prof(path);
    case Mode::kSweep: return report_sweep(path, metric);
    case Mode::kIntervals: break;
  }
  return report_intervals(path);
}
