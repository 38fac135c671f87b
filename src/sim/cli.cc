#include "src/sim/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace icr::sim::cli {

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

void unknown_flag(const char* program, const char* arg) {
  std::fprintf(stderr, "%s: unknown flag '%s' (run with --help for the flag "
                       "list)\n",
               program, arg);
  std::exit(2);
}

void bad_value(const char* program, const char* flag,
               const std::string& value) {
  std::fprintf(stderr, "%s: bad value '%s' for %s\n", program, value.c_str(),
               flag);
  std::exit(2);
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
  // strtoull alone would skip leading blanks, accept a sign (negating "-1"
  // into 2^64-1) and stop quietly at the first stray character.
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return std::nullopt;
  }
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, base);
  if (errno == ERANGE || end != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

std::optional<std::uint32_t> parse_u32(std::string_view text, int base) {
  const std::optional<std::uint64_t> value = parse_u64(text, base);
  if (!value || *value > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*value);
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    return std::nullopt;
  }
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) items.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

core::Scheme scheme_by_name(const std::string& name) {
  for (core::Scheme s : core::Scheme::all_paper_schemes()) {
    if (s.name == name) return s;
  }
  if (name == "BaseECC-spec") return core::Scheme::BaseECCSpeculative();
  std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
  std::exit(2);
}

trace::App app_by_name(const std::string& name) {
  for (const trace::App a : trace::all_apps()) {
    if (name == trace::to_string(a)) return a;
  }
  std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
  std::exit(2);
}

fault::FaultModel fault_by_name(const std::string& name) {
  using M = fault::FaultModel;
  for (const M m : {M::kRandom, M::kAdjacent, M::kColumn, M::kDirect}) {
    if (name == fault::to_string(m)) return m;
  }
  std::fprintf(stderr, "unknown fault model '%s'\n", name.c_str());
  std::exit(2);
}

core::ReplicaVictimPolicy victim_by_name(const std::string& name) {
  using P = core::ReplicaVictimPolicy;
  for (const P p :
       {P::kDeadOnly, P::kDeadFirst, P::kReplicaFirst, P::kReplicaOnly}) {
    if (name == core::to_string(p)) return p;
  }
  std::fprintf(stderr, "unknown victim policy '%s'\n", name.c_str());
  std::exit(2);
}

SampleMode sample_mode_by_name(const std::string& name) {
  for (const SampleMode m : {SampleMode::kSystematic, SampleMode::kRandom}) {
    if (name == to_string(m)) return m;
  }
  std::fprintf(stderr, "unknown sample mode '%s'\n", name.c_str());
  std::exit(2);
}

mem::WayDisableConfig::Pattern way_pattern_by_name(const std::string& name) {
  using P = mem::WayDisableConfig::Pattern;
  for (const P p : {P::kFixed, P::kRandom}) {
    if (name == mem::way_pattern_name(p)) return p;
  }
  std::fprintf(stderr, "bad --way-pattern '%s' (fixed|random)\n",
               name.c_str());
  std::exit(2);
}

std::optional<std::uint32_t> parse_size(std::string_view text) {
  std::uint64_t scale = 1;
  if (!text.empty()) {
    const char suffix = text.back();
    if (suffix == 'K' || suffix == 'k') scale = 1024;
    if (suffix == 'M' || suffix == 'm') scale = 1024 * 1024;
    if (scale != 1) text.remove_suffix(1);
  }
  const std::optional<std::uint32_t> value = parse_u32(text);
  if (!value || *value > std::numeric_limits<std::uint32_t>::max() / scale) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*value * scale);
}

bool RunFlags::parse(const char* arg) {
  if (number_flag(program, arg, "--instructions", instructions) ||
      number_flag(program, arg, "--window", window) ||
      parse_flag(arg, "--fault-model", fault_model) ||
      number_flag(program, arg, "--fault-prob", fault_prob) ||
      number_flag(program, arg, "--warmup", warmup) ||
      number_flag(program, arg, "--sample-windows", sample_windows) ||
      number_flag(program, arg, "--sample-width", sample_width) ||
      parse_flag(arg, "--sample-mode", sample_mode) ||
      number_flag(program, arg, "--sample-seed", sample_seed, 0) ||
      parse_flag(arg, "--way-pattern", way_pattern) ||
      number_flag(program, arg, "--way-seed", way_seed, 0) ||
      number_flag(program, arg, "--stats-interval", stats_interval) ||
      parse_flag(arg, "--intervals-out", intervals_out) ||
      parse_flag(arg, "--heatmap-out", heatmap_out) ||
      parse_flag(arg, "--trace-out", trace_out) ||
      parse_flag(arg, "--trace-filter", trace_filter)) {
    return true;
  }
  if (std::strcmp(arg, "--rel") == 0) {
    rel = true;
  } else if (std::strcmp(arg, "--prof") == 0) {
    prof = true;
  } else if (parse_flag(arg, "--prof-out", prof_out)) {
    prof = true;
  } else {
    return false;
  }
  return true;
}

SamplingOptions RunFlags::sampling() const {
  SamplingOptions options;
  options.warmup_instructions = warmup;
  options.windows = sample_windows;
  options.window_width = sample_width;
  options.mode = sample_mode_by_name(sample_mode);
  options.seed = sample_seed;
  return options;
}

obs::ObsOptions RunFlags::obs() const {
  obs::ObsOptions options;
  options.stats_interval = stats_interval;
  if (options.stats_interval == 0 &&
      (!intervals_out.empty() || !heatmap_out.empty())) {
    options.stats_interval = obs::kDefaultStatsInterval;
  }
  if (!trace_out.empty()) {
    options.trace_categories = obs::parse_category_list(trace_filter);
    if (options.trace_categories == 0) {
      std::fprintf(stderr, "bad --trace-filter '%s'\n", trace_filter.c_str());
      std::exit(2);
    }
  }
  return options;
}

}  // namespace icr::sim::cli
