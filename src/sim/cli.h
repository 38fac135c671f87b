// Shared command-line helpers for the simulator front-ends.
//
// The name-lookup and flag-splitting code used to be duplicated verbatim in
// tools/icr_sim.cc and tools/run_campaign.cc (and re-grown in new tools);
// this header is the single copy. The *_by_name lookups print a diagnostic
// and exit(2) on unknown names — they are CLI conveniences, not library
// API; library code should construct schemes/apps directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/core/scheme.h"
#include "src/core/replication_policy.h"
#include "src/fault/fault_injector.h"
#include "src/mem/cache_geometry.h"
#include "src/obs/observability.h"
#include "src/sim/sampling.h"
#include "src/trace/workloads.h"

namespace icr::sim::cli {

// Matches "--name=value"; on match copies the value and returns true.
[[nodiscard]] bool parse_flag(const char* arg, const char* name,
                              std::string& out);

// Shared unknown-flag rejection: prints "<program>: unknown flag '<arg>'"
// and a --help hint to stderr, then exits 2. Every front-end (tools/ and
// the bench harness) funnels unrecognized "--" arguments here so a typo
// like --instruction=1000 fails loudly and identically everywhere instead
// of silently running the wrong experiment.
[[noreturn]] void unknown_flag(const char* program, const char* arg);

// Prints "<program>: bad value '<value>' for <flag>" to stderr and exits 2.
[[noreturn]] void bad_value(const char* program, const char* flag,
                            const std::string& value);

// Checked number parsing: the whole text must be one number of the target
// type, or the result is empty. Empty text, whitespace, trailing
// characters and overflow of the target type are rejected; unsigned
// values take no sign. `base` follows strtoull: 10 for counts, 0 for
// seeds and masks (so "0x..." still works).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text,
                                                     int base = 10);
[[nodiscard]] std::optional<std::uint32_t> parse_u32(std::string_view text,
                                                     int base = 10);
// A decimal or scientific double that parses completely and is finite.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

// Matches "--name=value" like parse_flag and stores the checked number
// (`base` applies to the unsigned types); a value that does not parse
// exits through bad_value.
template <typename T>
bool number_flag(const char* program, const char* arg, const char* name,
                 T& out, int base = 10) {
  std::string value;
  if (!parse_flag(arg, name, value)) return false;
  std::optional<T> parsed;
  if constexpr (std::is_same_v<T, double>) {
    parsed = parse_double(value);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    parsed = parse_u32(value, base);
  } else {
    static_assert(std::is_same_v<T, std::uint64_t>);
    parsed = parse_u64(value, base);
  }
  if (!parsed) bad_value(program, name, value);
  out = *parsed;
  return true;
}

// Splits a comma-separated list, dropping empty items.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& list);

// Paper scheme by its display name ("BaseP", "ICR-P-PS(S)", ...), plus the
// "BaseECC-spec" alias for the §5.9 speculative variant. Exits on unknown.
[[nodiscard]] core::Scheme scheme_by_name(const std::string& name);

// Application by its lowercase name ("gzip" .. "bzip2"). Exits on unknown.
[[nodiscard]] trace::App app_by_name(const std::string& name);

// Fault model by name ("random", "adjacent", "column", "direct").
[[nodiscard]] fault::FaultModel fault_by_name(const std::string& name);

// Replica victim policy by name ("dead-only", "dead-first", ...).
[[nodiscard]] core::ReplicaVictimPolicy victim_by_name(const std::string& name);

// Sample-window placement mode by name ("systematic", "random").
[[nodiscard]] SampleMode sample_mode_by_name(const std::string& name);

// Disabled-way placement by name ("fixed", "random"). Exits on unknown.
[[nodiscard]] mem::WayDisableConfig::Pattern way_pattern_by_name(
    const std::string& name);

// A byte size: decimal digits, optionally suffixed K/k (x1024) or M/m
// (x1024^2), as in "8K". Empty when malformed or above UINT32_MAX.
[[nodiscard]] std::optional<std::uint32_t> parse_size(std::string_view text);

// The run flags icr_sim and run_campaign share, with the same meaning in
// both. Each tool's flag loop offers every argument to parse() first and
// handles only its own flags after that; behaviour that differs between
// the tools (what --stats-interval implies, the rel output names) stays in
// the tool.
struct RunFlags {
  explicit RunFlags(const char* program_name) : program(program_name) {}

  const char* program;  // prefixes bad-value diagnostics
  std::uint64_t instructions = 0;  // 0 = ICR_SIM_INSTRUCTIONS / 1M default
  std::uint64_t window = 0;        // dead-block decay window (cycles)
  std::string fault_model = "random";
  double fault_prob = 0.0;
  std::uint64_t warmup = 0;
  std::uint32_t sample_windows = 0;
  std::uint64_t sample_width = 0;
  std::string sample_mode = "systematic";
  std::uint64_t sample_seed = 0x5A3D11ULL;
  std::string way_pattern = "fixed";
  std::uint64_t way_seed = 0x0DDB17ULL;
  std::uint64_t stats_interval = 0;  // 0 = off (default when outputs ask)
  std::string intervals_out;
  std::string heatmap_out;
  std::string trace_out;
  std::string trace_filter = "all";
  bool rel = false;
  bool prof = false;  // --prof-out implies it
  std::string prof_out;

  // Consumes `arg` when it is one of the shared flags; false otherwise.
  // Exits 2 on a malformed number.
  bool parse(const char* arg);

  // The sampling request; exits 2 on an unknown --sample-mode.
  [[nodiscard]] SamplingOptions sampling() const;

  // The observability request: --stats-interval, defaulted to
  // obs::kDefaultStatsInterval when interval or heatmap output is asked
  // for, and the --trace-filter categories when --trace-out is set. Exits 2
  // on a bad --trace-filter.
  [[nodiscard]] obs::ObsOptions obs() const;
};

}  // namespace icr::sim::cli
