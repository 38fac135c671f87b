#include "src/sim/results_io.h"

#include <fstream>
#include <stdexcept>

#include "src/obs/obs_io.h"
#include "src/obs/prof.h"
#include "src/rel/rel_io.h"
#include "src/util/json.h"

namespace icr::sim {
namespace {

}  // namespace

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

std::string results_json_prologue(const CampaignMeta& meta, std::size_t cells,
                                  bool include_timing) {
  std::string out = "{\n  \"campaign\": {\n";
  out += "    \"base_seed\": \"" + util::hex64(meta.base_seed) + "\",\n";
  out += "    \"config_hash\": \"" + util::hex64(meta.config_hash) + "\",\n";
  out += "    \"instructions\": " + std::to_string(meta.instructions) + ",\n";
  out += "    \"trials\": " + std::to_string(meta.trials) + ",\n";
  out += "    \"cells\": " + std::to_string(cells);
  if (meta.sampling.enabled()) {
    const SamplingOptions& s = meta.sampling;
    out += ",\n    \"sampling\": {\"warmup\": " +
           std::to_string(s.warmup_instructions) +
           ", \"windows\": " + std::to_string(s.windows) +
           ", \"window_width\": " + std::to_string(s.window_width) +
           ", \"mode\": \"" + to_string(s.mode) + "\", \"seed\": \"" +
           util::hex64(s.seed) + "\"}";
  }
  if (meta.geometry) {
    out += ",\n    \"geometry\": true";
  }
  if (include_timing) {
    out += ",\n    \"threads\": " + std::to_string(meta.threads) + ",\n";
    out += "    \"completed_cells\": " + std::to_string(meta.completed_cells) +
           ",\n";
    out += "    \"wall_seconds\": " + util::exact_double(meta.wall_seconds) +
           ",\n";
    out += "    \"cells_per_second\": " +
           util::exact_double(meta.cells_per_second) + ",\n";
    out += "    \"mips\": " + util::exact_double(meta.mips);
  }
  out += "\n  },\n  \"cells\": [\n";
  return out;
}

void append_results_json_cell(std::string& out, const std::string& variant,
                              const std::string& app, std::uint32_t trial,
                              std::uint64_t seed,
                              const std::vector<double>& metrics,
                              const SampleProvenance* sampling, bool last,
                              const GeometryProvenance* geometry) {
  out += "    {\"variant\": \"" + util::json_escape(variant) +
         "\", \"app\": \"" + util::json_escape(app) +
         "\", \"trial\": " + std::to_string(trial) + ", \"seed\": \"" +
         util::hex64(seed) + "\"";
  if (geometry != nullptr) {
    out += ", \"geometry\": {\"dl1_size\": " +
           std::to_string(geometry->dl1_size_bytes) +
           ", \"dl1_assoc\": " + std::to_string(geometry->dl1_assoc) +
           ", \"ways_disabled\": " + std::to_string(geometry->ways_disabled) +
           "}";
  }
  out += ", \"metrics\": {";
  const std::vector<std::string>& columns = metric_columns();
  for (std::size_t m = 0; m < columns.size(); ++m) {
    if (m != 0) out += ", ";
    out += "\"" + columns[m] + "\": " + util::exact_double(metrics[m]);
  }
  out += '}';
  if (sampling != nullptr) {
    out += std::string(", \"sampling\": {\"sampled\": ") +
           (sampling->sampled ? "true" : "false") +
           ", \"warmup\": " + std::to_string(sampling->warmup_instructions) +
           ", \"windows\": " + std::to_string(sampling->windows) +
           ", \"measured_instructions\": " +
           std::to_string(sampling->measured_instructions) +
           ", \"coverage\": " + util::exact_double(sampling->coverage()) + "}";
  }
  out += '}';
  if (!last) out += ',';
  out += '\n';
}

std::string results_json_epilogue() { return "  ]\n}\n"; }

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
  std::string out = results_json_prologue(campaign.meta,
                                          campaign.cells.size(),
                                          include_timing);
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    const CellResult& cell = campaign.cells[i];
    append_results_json_cell(out, cell.result.scheme, cell.result.app,
                             cell.cell.trial_idx, cell.cell.seed,
                             metric_values(cell.result),
                             sampled ? &cell.sampling : nullptr,
                             i + 1 == campaign.cells.size(),
                             campaign.meta.geometry ? &cell.geometry
                                                    : nullptr);
  }
  out += results_json_epilogue();
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
  std::string out = "{\n  \"cells\": [";
  bool first = true;
  for (const CellResult& cell : campaign.cells) {
    if (cell.rel == nullptr) continue;
    if (!first) out += ',';
    out += '\n';
    rel::append_json_object(out, *cell.rel, tag_of(cell), 4);
    first = false;
  }
  if (!first) out += '\n';
  out += "  ]\n}\n";
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
