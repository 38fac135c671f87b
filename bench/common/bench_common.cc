#include "bench/common/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "src/sim/cli.h"
#include "src/sim/results_io.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace icr::bench {

namespace {
bool g_quiet = false;
std::string g_json_out;

// Pending --json-out document plus cross-campaign accumulators; written
// once by an atexit hook so multi-figure binaries aggregate naturally.
BenchJson g_doc;
double g_sim_instructions = 0.0;  // total simulated instructions
std::uint64_t g_config_hash = 0;  // folded across campaigns
bool g_ran_campaign = false;

std::set<std::string>& claimed_flags() {
  static std::set<std::string> flags;
  return flags;
}

std::string basename_of(const char* path) {
  const std::string text = path == nullptr ? "bench" : path;
  const std::size_t slash = text.find_last_of('/');
  return slash == std::string::npos ? text : text.substr(slash + 1);
}

std::string resolve_git_sha() {
  // CI exports the exact commit; local builds fall back to the SHA CMake
  // captured at configure time.
  if (const char* sha = std::getenv("GITHUB_SHA")) {
    if (sha[0] != '\0') return sha;
  }
#ifdef ICR_GIT_SHA
  return ICR_GIT_SHA;
#else
  return "unknown";
#endif
}

void write_json_at_exit() {
  if (g_json_out.empty()) return;
  if (g_ran_campaign) {
    g_doc.config_hash = util::hex64(g_config_hash);
    g_doc.mips = g_doc.wall_seconds > 0.0
                     ? g_sim_instructions / g_doc.wall_seconds / 1e6
                     : 0.0;
  }
  try {
    sim::write_text_file(g_json_out, to_json(g_doc));
    if (!g_quiet) {
      std::fprintf(stderr, "bench json written to %s\n", g_json_out.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench json: %s\n", error.what());
  }
}

// A flag init() does not handle itself but someone else owns.
bool known_flag(const char* arg) {
  // google-benchmark binaries own the --benchmark_* namespace; their
  // Initialize() consumes those after init() has seen them.
  if (std::strncmp(arg, "--benchmark_", 12) == 0) return true;
  const std::string name(arg, std::strcspn(arg, "="));
  return claimed_flags().count(name) != 0;
}

}  // namespace

void claim_flag(const std::string& flag) { claimed_flags().insert(flag); }

void init(int argc, char** argv) {
  g_doc.bench = basename_of(argc > 0 ? argv[0] : nullptr);
  g_doc.git_sha = resolve_git_sha();
  bool progress_forced = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "%s — ICR bench binary. Shared flags:\n"
          "  --quiet / -q        suppress campaign progress on stderr\n"
          "  --progress          force progress reporting even with --quiet\n"
          "  --instructions=N    per-point budget (sets ICR_SIM_INSTRUCTIONS)\n"
          "  --threads=N         worker threads (sets ICR_SIM_THREADS)\n"
          "  --json-out=FILE     write an icr-bench-v1 JSON document on exit\n",
          g_doc.bench.c_str());
      std::exit(0);
    } else if (std::strcmp(arg, "--quiet") == 0 ||
               std::strcmp(arg, "-q") == 0) {
      g_quiet = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      progress_forced = true;
    } else if (sim::cli::parse_flag(arg, "--instructions", value)) {
      // Same knob as the ICR_SIM_INSTRUCTIONS environment variable; the
      // flag spelling matches the tools/ binaries.
      ::setenv("ICR_SIM_INSTRUCTIONS", value.c_str(), /*overwrite=*/1);
    } else if (sim::cli::parse_flag(arg, "--threads", value)) {
      ::setenv("ICR_SIM_THREADS", value.c_str(), /*overwrite=*/1);
    } else if (sim::cli::parse_flag(arg, "--json-out", value)) {
      g_json_out = value;
      std::atexit(write_json_at_exit);
    } else if (std::strncmp(arg, "--", 2) == 0 && !known_flag(arg)) {
      // Same hard rejection as the tools/ binaries (shared sim::cli path):
      // a typo like --instruction=1000 must not silently run the wrong
      // experiment. Benches that take their own flags declare them via
      // claim_flag() before init().
      sim::cli::unknown_flag(g_doc.bench.c_str(), arg);
    }
  }
  sim::CampaignRunner::set_default_progress_enabled(!g_quiet ||
                                                    progress_forced);
}

bool quiet() { return g_quiet; }

const std::string& json_out_path() { return g_json_out; }

void record_metric(const std::string& name, double value, Better better,
                   double noise) {
  if (g_json_out.empty()) return;
  BenchMetric metric;
  metric.name = name;
  metric.value = value;
  metric.better = better;
  metric.noise = noise;
  g_doc.metrics.push_back(std::move(metric));
}

void print_header(const std::string& figure, const std::string& description) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n", figure.c_str());
  std::printf("# %s\n", description.c_str());
  std::printf("# instructions/point: %llu (override: ICR_SIM_INSTRUCTIONS)\n",
              static_cast<unsigned long long>(
                  sim::default_instruction_count()));
  std::printf("# threads: %u (override: ICR_SIM_THREADS)\n",
              sim::resolve_thread_count());
  std::printf("################################################################\n");
}

namespace {

// run_matrix with the campaign metadata kept: the JSON export needs wall
// time, config hash, and the simulated-instruction total, which the plain
// sim::run_matrix wrapper discards. Spec construction mirrors run_matrix
// exactly (single trial, no seed derivation) so figures stay bit-identical.
sim::CampaignResult run_figure_campaign(
    const std::vector<sim::SchemeVariant>& variants,
    const std::vector<trace::App>& apps, const sim::SimConfig& config) {
  sim::CampaignSpec spec;
  spec.variants = variants;
  spec.apps = apps;
  spec.config = config;
  sim::CampaignResult campaign = sim::CampaignRunner().run(spec);
  g_ran_campaign = true;
  g_doc.wall_seconds += campaign.meta.wall_seconds;
  g_sim_instructions += static_cast<double>(campaign.meta.instructions) *
                        static_cast<double>(campaign.cells.size());
  // Fold so multi-campaign binaries get one stable fingerprint.
  g_config_hash = mix64(g_config_hash ^ mix64(campaign.meta.config_hash));
  return campaign;
}

void print_matrix(const std::string& figure,
                  const std::vector<sim::SchemeVariant>& variants,
                  const sim::CampaignResult& campaign,
                  const std::function<double(const sim::RunResult&)>& metric,
                  const std::string& metric_name, int precision,
                  bool normalized) {
  const auto apps = trace::all_apps();
  std::vector<std::string> columns = {"benchmark"};
  for (const auto& v : variants) columns.push_back(v.label);
  TextTable table(figure + " — " + metric_name, std::move(columns));

  std::vector<double> sums(variants.size(), 0.0);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<double> row;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const sim::RunResult& result =
          campaign.at(v, a, 0, apps.size(), 1).result;
      double value = metric(result);
      if (normalized) {
        const double base = metric(campaign.at(0, a, 0, apps.size(), 1).result);
        value = base == 0.0 ? 0.0 : value / base;
      }
      sums[v] += value;
      row.push_back(value);
      record_metric(figure + "/" + trace::to_string(apps[a]) + "/" +
                        variants[v].label,
                    value);
    }
    table.add_numeric_row(trace::to_string(apps[a]), row, precision);
  }
  std::vector<double> avg;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    avg.push_back(sums[v] / static_cast<double>(apps.size()));
    record_metric(figure + "/average/" + variants[v].label, avg.back());
  }
  table.add_numeric_row("average", avg, precision);
  table.print();
}

}  // namespace

void run_and_print(
    const std::string& figure, const std::string& description,
    const std::vector<sim::SchemeVariant>& variants,
    const std::function<double(const sim::RunResult&)>& metric,
    const std::string& metric_name, int precision,
    const sim::SimConfig& config) {
  print_header(figure, description);
  const auto campaign =
      run_figure_campaign(variants, trace::all_apps(), config);
  print_matrix(figure, variants, campaign, metric, metric_name, precision,
               /*normalized=*/false);
}

void run_and_print_normalized(
    const std::string& figure, const std::string& description,
    const std::vector<sim::SchemeVariant>& variants,
    const std::function<double(const sim::RunResult&)>& metric,
    const std::string& metric_name, const sim::SimConfig& config) {
  print_header(figure, description);
  const auto campaign =
      run_figure_campaign(variants, trace::all_apps(), config);
  print_matrix(figure, variants, campaign, metric,
               metric_name + " (normalized to " + variants[0].label + ")", 3,
               /*normalized=*/true);
}

core::ReplicationConfig single_attempt() {
  core::ReplicationConfig rep;  // defaults: 1 replica @ N/2, no fallback
  return rep;
}

core::ReplicationConfig multi_attempt() {
  core::ReplicationConfig rep;
  rep.fallback = core::FallbackStrategy::kMultiAttempt;
  rep.extra_attempts = {core::Distance::quarter()};
  return rep;
}

core::ReplicationConfig two_replicas() {
  core::ReplicationConfig rep = multi_attempt();
  rep.num_replicas = 2;
  return rep;
}

}  // namespace icr::bench
