// Structured export of campaign results.
//
// Two formats, one schema:
//   * CSV — a header row of metric_columns(), then one row per cell in
//     grid order. Made for pandas/gnuplot; values are locale-independent.
//   * JSON — a "campaign" metadata object (base seed, config hash,
//     instruction count, threads, wall time, cells/sec) plus a "cells"
//     array whose per-cell "metrics" object mirrors the CSV columns.
//
// Timing fields (threads, wall_seconds, cells_per_second) are the only
// run-dependent outputs; pass include_timing = false to omit them and get
// byte-identical text for byte-identical experiments — the property
// tests/campaign_test.cc locks in across thread counts.
//
// Sampled campaigns (meta.sampling.enabled()) additionally carry
// provenance: CSV rows gain sampled/warmup/sample_windows/
// measured_instructions/sample_coverage columns, the JSON grows a
// campaign-level "sampling" options object and a per-cell "sampling"
// provenance object. Unsampled campaigns keep the historical schema byte
// for byte (guarded by tests/sampling_test.cc). Likewise geometry-swept
// campaigns (meta.geometry) gain dl1_size/dl1_assoc/ways_disabled CSV
// columns after the seed and a per-cell JSON "geometry" object; other
// campaigns keep the legacy export bytes (docs/GEOMETRY.md).
#pragma once

#include <string>
#include <vector>

#include "src/sim/campaign.h"

namespace icr::sim {

// Names of the per-cell metric columns, aligned with metric_values().
[[nodiscard]] const std::vector<std::string>& metric_columns();

// The exported metrics of one run, aligned with metric_columns(). This is
// also the "did two runs agree?" vector: campaigns are deterministic iff
// these values are bit-identical cell by cell.
[[nodiscard]] std::vector<double> metric_values(const RunResult& result);

[[nodiscard]] std::string to_csv(const CampaignResult& campaign);
[[nodiscard]] std::string to_json(const CampaignResult& campaign,
                                  bool include_timing = true);

// Observability exports over every cell that recorded telemetry (cells
// without it are skipped). Schemas live in src/obs/obs_io.h.
[[nodiscard]] std::string intervals_to_csv(const CampaignResult& campaign);
[[nodiscard]] std::string occupancy_to_csv(const CampaignResult& campaign);
[[nodiscard]] std::string trace_to_ndjson(const CampaignResult& campaign);

// Analytical reliability exports over every cell that tracked rel (cells
// without a report are skipped). Schemas live in src/rel/rel_io.h.
[[nodiscard]] std::string rel_to_csv(const CampaignResult& campaign);
[[nodiscard]] std::string rel_intervals_to_csv(const CampaignResult& campaign);
[[nodiscard]] std::string rel_to_json(const CampaignResult& campaign);

// Writes `text` to `path`, overwriting; throws std::runtime_error on I/O
// failure so campaign CLIs fail loudly instead of dropping results.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace icr::sim
