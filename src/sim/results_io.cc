#include "src/sim/results_io.h"

#include <fstream>
#include <stdexcept>

#include "src/obs/obs_io.h"
#include "src/obs/prof.h"
#include "src/rel/rel_io.h"
#include "src/util/json.h"

namespace icr::sim {

using Layout = util::JsonWriter::Layout;

const std::vector<std::string>& metric_columns() {
  static const std::vector<std::string> columns = {
      "instructions",
      "cycles",
      "ipc",
      "dl1_loads",
      "dl1_load_hits",
      "dl1_stores",
      "dl1_miss_rate",
      "replication_ability",
      "loads_with_replica_fraction",
      "replicas_created",
      "replica_evictions",
      "evictions",
      "writebacks",
      "errors_detected",
      "errors_corrected_by_replica",
      "errors_corrected_by_ecc",
      "errors_corrected_by_rcache",
      "errors_refetched_from_l2",
      "unrecoverable_loads",
      "silent_corrupt_loads",
      "scrub_corrections",
      "fault_injections",
      "fault_bits_flipped",
      "fault_corrected",
      "fault_replica_recovered",
      "fault_detected_uncorrectable",
      "fault_silent",
      "l1i_miss_rate",
      "l2_miss_rate",
      "branch_mispredict_rate",
      "energy_total_nj",
  };
  return columns;
}

std::vector<double> metric_values(const RunResult& r) {
  return {
      static_cast<double>(r.instructions),
      static_cast<double>(r.cycles),
      r.ipc(),
      static_cast<double>(r.dl1.loads),
      static_cast<double>(r.dl1.load_hits),
      static_cast<double>(r.dl1.stores),
      r.dl1.miss_rate(),
      r.dl1.replication_ability(),
      r.dl1.loads_with_replica_fraction(),
      static_cast<double>(r.dl1.replicas_created),
      static_cast<double>(r.dl1.replica_evictions),
      static_cast<double>(r.dl1.evictions),
      static_cast<double>(r.dl1.writebacks),
      static_cast<double>(r.dl1.errors_detected),
      static_cast<double>(r.dl1.errors_corrected_by_replica),
      static_cast<double>(r.dl1.errors_corrected_by_ecc),
      static_cast<double>(r.dl1.errors_corrected_by_rcache),
      static_cast<double>(r.dl1.errors_refetched_from_l2),
      static_cast<double>(r.dl1.unrecoverable_loads),
      static_cast<double>(r.pipeline.silent_corrupt_loads),
      static_cast<double>(r.dl1.scrub_corrections),
      static_cast<double>(r.faults.injections),
      static_cast<double>(r.faults.bits_flipped),
      static_cast<double>(r.faults.corrected),
      static_cast<double>(r.faults.replica_recovered),
      static_cast<double>(r.faults.detected_uncorrectable),
      static_cast<double>(r.faults.silent),
      r.l1i.miss_rate(),
      r.l2.miss_rate(),
      r.branch.mispredict_rate(),
      r.energy.total_nj(),
  };
}

std::string results_csv_header(bool sampled, bool geometry) {
  std::string out = "variant,app,trial,seed";
  if (geometry) out += ",dl1_size,dl1_assoc,ways_disabled";
  for (const std::string& column : metric_columns()) {
    out += ',';
    out += column;
  }
  if (sampled) {
    out += ",sampled,warmup,sample_windows,measured_instructions,"
           "sample_coverage";
  }
  out += '\n';
  return out;
}

void append_results_csv_row(std::string& out, const std::string& variant,
                            const std::string& app, std::uint32_t trial,
                            std::uint64_t seed,
                            const std::vector<double>& metrics,
                            const SampleProvenance* sampling,
                            const GeometryProvenance* geometry) {
  out += variant;
  out += ',';
  out += app;
  out += ',';
  out += std::to_string(trial);
  out += ',';
  out += util::hex64(seed);
  if (geometry != nullptr) {
    out += ',';
    out += std::to_string(geometry->dl1_size_bytes);
    out += ',';
    out += std::to_string(geometry->dl1_assoc);
    out += ',';
    out += std::to_string(geometry->ways_disabled);
  }
  for (const double value : metrics) {
    out += ',';
    out += util::exact_double(value);
  }
  if (sampling != nullptr) {
    out += sampling->sampled ? ",1," : ",0,";
    out += std::to_string(sampling->warmup_instructions);
    out += ',';
    out += std::to_string(sampling->windows);
    out += ',';
    out += std::to_string(sampling->measured_instructions);
    out += ',';
    out += util::exact_double(sampling->coverage());
  }
  out += '\n';
}

void append_json(util::JsonWriter& json, const SamplingOptions& s) {
  json.begin_object(Layout::kInline).field("warmup", s.warmup_instructions);
  json.field("windows", s.windows).field("window_width", s.window_width);
  json.field("mode", to_string(s.mode)).field("seed", util::Hex{s.seed});
  json.end();
}

void append_json(util::JsonWriter& json, const GeometryProvenance& g) {
  json.begin_object(Layout::kInline).field("dl1_size", g.dl1_size_bytes);
  json.field("dl1_assoc", g.dl1_assoc);
  json.field("ways_disabled", g.ways_disabled).end();
}

void results_json_prologue(util::JsonWriter& json, const CampaignMeta& meta,
                           std::size_t cells, bool include_timing) {
  json.begin_object(Layout::kBlock).key("campaign");
  json.begin_object(Layout::kBlock);
  json.field("base_seed", util::Hex{meta.base_seed});
  json.field("config_hash", util::Hex{meta.config_hash});
  json.field("instructions", meta.instructions).field("trials", meta.trials);
  json.field("cells", cells);
  if (meta.sampling.enabled()) append_json(json.key("sampling"), meta.sampling);
  if (meta.geometry) json.field("geometry", true);
  if (include_timing) {
    json.field("threads", meta.threads);
    json.field("completed_cells", meta.completed_cells);
    json.field("wall_seconds", meta.wall_seconds);
    json.field("cells_per_second", meta.cells_per_second);
    json.field("mips", meta.mips);
  }
  json.end().key("cells").begin_array(Layout::kBlock);
}

void append_results_json_cell(util::JsonWriter& json,
                              const std::string& variant,
                              const std::string& app, std::uint32_t trial,
                              std::uint64_t seed,
                              const std::vector<double>& metrics,
                              const SampleProvenance* sampling,
                              const GeometryProvenance* geometry) {
  json.begin_object(Layout::kInline).field("variant", variant);
  json.field("app", app).field("trial", trial).field("seed", util::Hex{seed});
  if (geometry != nullptr) append_json(json.key("geometry"), *geometry);
  json.key("metrics").begin_object(Layout::kInline);
  const std::vector<std::string>& columns = metric_columns();
  for (std::size_t m = 0; m < columns.size(); ++m) {
    json.field(columns[m], metrics[m]);
  }
  json.end();
  if (sampling != nullptr) {
    json.key("sampling").begin_object(Layout::kInline);
    json.field("sampled", sampling->sampled);
    json.field("warmup", sampling->warmup_instructions);
    json.field("windows", sampling->windows);
    json.field("measured_instructions", sampling->measured_instructions);
    json.field("coverage", sampling->coverage()).end();
  }
  json.end();
}

void results_json_epilogue(util::JsonWriter& json) { json.end().end(); }

std::string to_csv(const CampaignResult& campaign) {
  ICR_PROF_ZONE("ResultsIO::to_csv");
  // Sampled campaigns report estimates, not full measurements; mark every
  // row with its provenance so downstream analysis can never confuse the
  // two. Unsampled campaigns keep the historical schema byte for byte.
  const bool sampled = campaign.meta.sampling.enabled();
  std::string out = results_csv_header(sampled, campaign.meta.geometry);
  for (const CellResult& cell : campaign.cells) {
    append_results_csv_row(out, cell.result.scheme, cell.result.app,
                           cell.cell.trial_idx, cell.cell.seed,
                           metric_values(cell.result),
                           sampled ? &cell.sampling : nullptr,
                           campaign.meta.geometry ? &cell.geometry : nullptr);
  }
  return out;
}

std::string to_json(const CampaignResult& campaign, bool include_timing) {
  ICR_PROF_ZONE("ResultsIO::to_json");
  const bool sampled = campaign.meta.sampling.enabled();
  std::string out;
  util::JsonWriter json(out);
  results_json_prologue(json, campaign.meta, campaign.cells.size(),
                        include_timing);
  for (const CellResult& cell : campaign.cells) {
    append_results_json_cell(json, cell.result.scheme, cell.result.app,
                             cell.cell.trial_idx, cell.cell.seed,
                             metric_values(cell.result),
                             sampled ? &cell.sampling : nullptr,
                             campaign.meta.geometry ? &cell.geometry
                                                    : nullptr);
  }
  results_json_epilogue(json);
  return out;
}

namespace {

obs::CellTag tag_of(const CellResult& cell) {
  return obs::CellTag{cell.result.scheme, cell.result.app,
                      cell.cell.trial_idx};
}

}  // namespace

std::string intervals_to_csv(const CampaignResult& campaign) {
  std::string out;
  for (const CellResult& cell : campaign.cells) {
    if (cell.obs == nullptr || cell.obs->intervals.samples.empty()) continue;
    if (out.empty()) out = obs::intervals_csv_header(cell.obs->intervals);
    obs::append_intervals_csv_rows(out, cell.obs->intervals, tag_of(cell));
  }
  return out;
}

std::string occupancy_to_csv(const CampaignResult& campaign) {
  std::string out;
  for (const CellResult& cell : campaign.cells) {
    if (cell.obs == nullptr || cell.obs->intervals.occupancy_sets == 0) {
      continue;
    }
    if (out.empty()) {
      out = obs::occupancy_csv_header(cell.obs->intervals.occupancy_sets);
    }
    obs::append_occupancy_csv_rows(out, cell.obs->intervals, tag_of(cell));
  }
  return out;
}

std::string trace_to_ndjson(const CampaignResult& campaign) {
  std::string out;
  for (const CellResult& cell : campaign.cells) {
    if (cell.obs == nullptr) continue;
    obs::append_ndjson(out, cell.obs->events, tag_of(cell));
  }
  return out;
}

std::string rel_to_csv(const CampaignResult& campaign) {
  std::string out;
  for (const CellResult& cell : campaign.cells) {
    if (cell.rel == nullptr) continue;
    if (out.empty()) out = rel::summary_csv_header();
    rel::append_summary_csv_row(out, *cell.rel, tag_of(cell));
  }
  return out;
}

std::string rel_intervals_to_csv(const CampaignResult& campaign) {
  std::string out;
  for (const CellResult& cell : campaign.cells) {
    if (cell.rel == nullptr) continue;
    if (out.empty()) out = rel::intervals_csv_header();
    rel::append_intervals_csv_rows(out, *cell.rel, tag_of(cell));
  }
  return out;
}

std::string rel_to_json(const CampaignResult& campaign) {
  std::string out;
  util::JsonWriter json(out);
  json.begin_object(Layout::kBlock).key("cells").begin_array(Layout::kBlock);
  for (const CellResult& cell : campaign.cells) {
    if (cell.rel != nullptr) rel::append_json(json, *cell.rel, tag_of(cell));
  }
  json.end().end();
  return out;
}

void write_text_file(const std::string& path, const std::string& text) {
  ICR_PROF_ZONE("ResultsIO::write_text_file");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("cannot open '" + path + "' for write");
  file << text;
  file.flush();
  if (!file) throw std::runtime_error("write to '" + path + "' failed");
}

}  // namespace icr::sim
