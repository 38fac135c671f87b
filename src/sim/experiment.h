// Experiment runner shared by every bench binary: runs (app x scheme)
// matrices with the Table-1 configuration and caches nothing — each bench
// is a standalone reproduction of one paper figure/table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/scheme.h"
#include "src/sim/config.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/workloads.h"

namespace icr::sim {

// Runs `scheme` on `app` for `instructions` (0 = default_instruction_count).
[[nodiscard]] RunResult run_one(trace::App app, const core::Scheme& scheme,
                                const SimConfig& config = SimConfig::table1(),
                                std::uint64_t instructions = 0);

// One column of a figure: a labelled scheme (+config) variant.
// `config`, when set, overrides the campaign/matrix-wide SimConfig for this
// variant only — how fault-model and error-rate sweeps become ordinary
// campaign cells (see bench/fig14_error_injection.cc).
struct SchemeVariant {
  SchemeVariant() = default;
  SchemeVariant(std::string label_in, core::Scheme scheme_in,
                std::optional<SimConfig> config_in = std::nullopt)
      : label(std::move(label_in)),
        scheme(std::move(scheme_in)),
        config(std::move(config_in)) {}

  std::string label;
  core::Scheme scheme;
  std::optional<SimConfig> config;
};

// Runs every variant over every app; result[v][a] aligns with inputs.
[[nodiscard]] std::vector<std::vector<RunResult>> run_matrix(
    const std::vector<SchemeVariant>& variants,
    const std::vector<trace::App>& apps,
    const SimConfig& config = SimConfig::table1(),
    std::uint64_t instructions = 0);

}  // namespace icr::sim
