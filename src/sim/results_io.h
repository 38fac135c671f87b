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
// for byte (guarded by tests/sampling_test.cc).
#pragma once

#include <string>
#include <vector>

#include "src/sim/campaign.h"
#include "src/util/json.h"

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

// Streaming building blocks of the two exporters above. to_csv/to_json are
// literally header + rows + epilogue through these functions, and the
// campaign farm's aggregator (src/sim/farm.h) emits through the same ones
// from checkpointed cell records — so farmed exports are byte-identical to
// in-memory ones by construction, not by parallel maintenance of two
// writers. `sampling == nullptr` means an unsampled campaign (historical
// schema); pass a provenance object for every row of a sampled one.
// Likewise `geometry == nullptr` / `geometry = false` means no geometry
// sweep: CSV rows gain dl1_size/dl1_assoc/ways_disabled columns (after the
// seed) and JSON cells a "geometry" object only for geometry-swept
// campaigns, keeping legacy export bytes untouched (docs/GEOMETRY.md).
[[nodiscard]] std::string results_csv_header(bool sampled,
                                             bool geometry = false);
void append_results_csv_row(std::string& out, const std::string& variant,
                            const std::string& app, std::uint32_t trial,
                            std::uint64_t seed,
                            const std::vector<double>& metrics,
                            const SampleProvenance* sampling,
                            const GeometryProvenance* geometry = nullptr);
// The campaign-level "sampling" options object and the per-cell "geometry"
// object, shared with the farm's manifest and unit records.
void append_json(util::JsonWriter& json, const SamplingOptions& sampling);
void append_json(util::JsonWriter& json, const GeometryProvenance& geometry);

// JSON document skeleton, written through one util::JsonWriter kept across
// the calls: prologue (campaign meta and the opening of the cells array,
// `cells` = grid size), one object per cell, epilogue.
void results_json_prologue(util::JsonWriter& json, const CampaignMeta& meta,
                           std::size_t cells, bool include_timing);
void append_results_json_cell(util::JsonWriter& json,
                              const std::string& variant,
                              const std::string& app, std::uint32_t trial,
                              std::uint64_t seed,
                              const std::vector<double>& metrics,
                              const SampleProvenance* sampling,
                              const GeometryProvenance* geometry = nullptr);
void results_json_epilogue(util::JsonWriter& json);

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
