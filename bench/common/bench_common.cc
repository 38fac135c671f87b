#include "bench/common/bench_common.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/sim/cli.h"

namespace icr::bench {

namespace {

std::string basename_of(const char* path) {
  const std::string text = path == nullptr ? "bench" : path;
  const std::size_t slash = text.find_last_of('/');
  return slash == std::string::npos ? text : text.substr(slash + 1);
}

}  // namespace

void init(int argc, char** argv) {
  const std::string bench = basename_of(argc > 0 ? argv[0] : nullptr);
  bool quiet = false;
  bool progress_forced = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::uint64_t instructions = 0;
    std::uint32_t threads = 0;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "%s — ICR bench binary. Shared flags:\n"
          "  --quiet / -q        suppress campaign progress on stderr\n"
          "  --progress          force progress reporting even with --quiet\n"
          "  --instructions=N    per-point budget (sets ICR_SIM_INSTRUCTIONS)\n"
          "  --threads=N         worker threads (sets ICR_SIM_THREADS)\n",
          bench.c_str());
      std::exit(0);
    } else if (std::strcmp(arg, "--quiet") == 0 ||
               std::strcmp(arg, "-q") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      progress_forced = true;
    } else if (sim::cli::number_flag(bench.c_str(), arg, "--instructions",
                                     instructions)) {
      // Same knob as the ICR_SIM_INSTRUCTIONS environment variable; the
      // flag spelling matches the tools/ binaries.
      ::setenv("ICR_SIM_INSTRUCTIONS", std::to_string(instructions).c_str(),
               /*overwrite=*/1);
    } else if (sim::cli::number_flag(bench.c_str(), arg, "--threads",
                                     threads)) {
      ::setenv("ICR_SIM_THREADS", std::to_string(threads).c_str(),
               /*overwrite=*/1);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      // Same hard rejection as the tools/ binaries (shared sim::cli path):
      // a typo like --instruction=1000 must not silently run the wrong
      // experiment.
      sim::cli::unknown_flag(bench.c_str(), arg);
    }
  }
  sim::CampaignRunner::set_default_progress_enabled(!quiet ||
                                                    progress_forced);
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

void print_matrix(const std::string& figure,
                  const std::vector<sim::SchemeVariant>& variants,
                  const std::vector<std::vector<sim::RunResult>>& matrix,
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
      double value = metric(matrix[v][a]);
      if (normalized) {
        const double base = metric(matrix[0][a]);
        value = base == 0.0 ? 0.0 : value / base;
      }
      sums[v] += value;
      row.push_back(value);
    }
    table.add_numeric_row(trace::to_string(apps[a]), row, precision);
  }
  std::vector<double> avg;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    avg.push_back(sums[v] / static_cast<double>(apps.size()));
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
  const auto matrix = sim::run_matrix(variants, trace::all_apps(), config);
  print_matrix(figure, variants, matrix, metric, metric_name, precision,
               /*normalized=*/false);
}

void run_and_print_normalized(
    const std::string& figure, const std::string& description,
    const std::vector<sim::SchemeVariant>& variants,
    const std::function<double(const sim::RunResult&)>& metric,
    const std::string& metric_name, const sim::SimConfig& config) {
  print_header(figure, description);
  const auto matrix = sim::run_matrix(variants, trace::all_apps(), config);
  print_matrix(figure, variants, matrix, metric,
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
