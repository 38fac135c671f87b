// Shared harness for the per-figure bench binaries.
//
// Every bench reproduces one table or figure of the paper as an aligned
// text table: rows are applications (or sweep points), columns are the
// figure's series. Instruction count per point comes from
// sim::default_instruction_count() (ICR_SIM_INSTRUCTIONS overrides).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/sim/campaign.h"
#include "src/sim/experiment.h"
#include "src/util/table.h"

namespace icr::bench {

// Common bench CLI setup. Flags shared by every bench binary:
//   --quiet / -q        suppress campaign progress on stderr
//   --progress          force progress reporting even with --quiet
//   --instructions=N    per-point instruction budget (sets ICR_SIM_INSTRUCTIONS)
//   --threads=N         campaign worker threads (sets ICR_SIM_THREADS)
// Both numbers go through the checked sim::cli::number_flag parser, so a
// malformed value exits 2 with "<bench>: bad value '<v>' for --<flag>".
// Unrecognized "--" flags are rejected with exit code 2 through the shared
// sim::cli::unknown_flag path (same behavior as the tools/ binaries).
// --help/-h prints the shared flag list.
// Call first thing in every bench main().
void init(int argc, char** argv);

// Prints the standard bench header (figure id, settings, instruction count).
void print_header(const std::string& figure, const std::string& description);

// Runs `variants` over all eight applications and prints one metric per
// variant column, plus a cross-application average row.
// `metric` maps a RunResult to the plotted value.
void run_and_print(
    const std::string& figure, const std::string& description,
    const std::vector<sim::SchemeVariant>& variants,
    const std::function<double(const sim::RunResult&)>& metric,
    const std::string& metric_name, int precision = 3,
    const sim::SimConfig& config = sim::SimConfig::table1());

// Like run_and_print but normalizes each app's value to the first variant
// (the paper's "normalized execution cycles" style).
void run_and_print_normalized(
    const std::string& figure, const std::string& description,
    const std::vector<sim::SchemeVariant>& variants,
    const std::function<double(const sim::RunResult&)>& metric,
    const std::string& metric_name,
    const sim::SimConfig& config = sim::SimConfig::table1());

// The paper's Fig. 1 replication setting: one replica, attempts at
// Distance-N/2 only / at {N/2, N/4}.
[[nodiscard]] core::ReplicationConfig single_attempt();
[[nodiscard]] core::ReplicationConfig multi_attempt();
// Two replicas: first at N/2, second at N/4 (Fig. 3).
[[nodiscard]] core::ReplicationConfig two_replicas();

}  // namespace icr::bench
