#include "src/sim/farm.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "src/obs/farm_progress.h"
#include "src/obs/prof.h"
#include "src/obs/prof_io.h"
#include "src/sim/cli.h"
#include "src/sim/farm_telemetry.h"
#include "src/sim/results_io.h"
#include "src/util/fs.h"
#include "src/util/json.h"

namespace icr::sim::farm {

using Layout = util::JsonWriter::Layout;

namespace {

std::uint64_t parse_hex64(const util::JsonValue& value) {
  return std::strtoull(value.as_string("0x0").c_str(), nullptr, 0);
}

[[noreturn]] void bad_document(const std::string& what) {
  throw std::runtime_error("farm: " + what);
}

SamplingOptions parse_sampling(const util::JsonValue& v) {
  SamplingOptions s;
  s.warmup_instructions = v.get("warmup").as_int<std::uint64_t>();
  s.windows = v.get("windows").as_int<std::uint32_t>();
  s.window_width = v.get("window_width").as_int<std::uint64_t>();
  s.mode = cli::sample_mode_by_name(v.get("mode").as_string("systematic"));
  s.seed = parse_hex64(v.get("seed"));
  return s;
}

std::string unit_file_name(std::uint32_t unit) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "unit_%06u", unit);
  return buffer;
}

// The coordinator's progress line cadence while no worker exits.
constexpr double kProgressPollSeconds = 0.2;

}  // namespace

std::vector<WorkUnit> shard_units(std::uint64_t total_cells,
                                  std::uint64_t unit_cells) {
  if (unit_cells == 0) unit_cells = 1;
  std::vector<WorkUnit> units;
  units.reserve(static_cast<std::size_t>(
      (total_cells + unit_cells - 1) / unit_cells));
  std::uint32_t index = 0;
  for (std::uint64_t begin = 0; begin < total_cells; begin += unit_cells) {
    WorkUnit unit;
    unit.index = index++;
    unit.begin = begin;
    unit.end = std::min(begin + unit_cells, total_cells);
    units.push_back(unit);
  }
  return units;
}

std::string Manifest::to_json() const {
  std::string out;
  util::JsonWriter json(out);
  json.begin_object(Layout::kBlock).key("farm").begin_object(Layout::kBlock);
  json.field("version", version);
  json.field("config_hash", util::Hex{config_hash});
  json.field("base_seed", util::Hex{base_seed});
  json.field("instructions", instructions).field("trials", trials);
  json.field("derive_seeds", derive_seeds);
  json.field("variant_count", variant_count).field("app_count", app_count);
  json.field("total_cells", total_cells).field("unit_cells", unit_cells);
  json.field("unit_count", unit_count).field("decay_window", decay_window);
  json.field("fault_model", fault_model);
  json.field("fault_probability", fault_probability);
  append_json(json.key("sampling"), sampling);
  const auto array = [&json](const char* key, const auto& values) {
    json.key(key).begin_array(Layout::kInline);
    for (const auto& v : values) json.value(v);
    json.end();
  };
  if (geometry.enabled()) {
    json.key("geometry").begin_object(Layout::kInline);
    array("sizes", geometry.sizes);
    array("assocs", geometry.assocs);
    array("ways_disabled", geometry.ways_disabled);
    json.field("pattern", mem::way_pattern_name(geometry.pattern));
    json.field("way_seed", util::Hex{geometry.way_seed}).end();
  }
  if (trace.enabled()) {
    json.key("trace").begin_object(Layout::kInline).field("path", trace.path);
    json.field("shard_instructions", trace.shard_instructions);
    json.field("fingerprint", util::Hex{trace.fingerprint});
    json.field("records", trace.records).end();
  }
  array("schemes", schemes);
  array("apps", apps);
  json.end().end();
  return out;
}

Manifest Manifest::parse(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  const util::JsonValue& f = doc.get("farm");
  if (!f.is_object()) bad_document("manifest has no \"farm\" object");
  Manifest m;
  m.version = f.get("version").as_int<int>(-1);
  if (m.version != kFormatVersion) {
    bad_document("manifest version " + std::to_string(m.version) +
                 " (this build reads version " +
                 std::to_string(kFormatVersion) + ")");
  }
  m.config_hash = parse_hex64(f.get("config_hash"));
  m.base_seed = parse_hex64(f.get("base_seed"));
  m.instructions = f.get("instructions").as_int<std::uint64_t>();
  m.trials = f.get("trials").as_int<std::uint32_t>();
  m.derive_seeds = f.get("derive_seeds").as_bool(false);
  m.variant_count = f.get("variant_count").as_int<std::uint32_t>();
  m.app_count = f.get("app_count").as_int<std::uint32_t>();
  m.total_cells = f.get("total_cells").as_int<std::uint64_t>();
  m.unit_cells = f.get("unit_cells").as_int<std::uint64_t>();
  m.unit_count = f.get("unit_count").as_int<std::uint32_t>();
  m.decay_window = f.get("decay_window").as_int<std::uint64_t>();
  m.fault_model = f.get("fault_model").as_string("random");
  m.fault_probability = f.get("fault_probability").as_double(0.0);
  if (f.get("sampling").is_object()) {
    m.sampling = parse_sampling(f.get("sampling"));
  }
  if (f.get("geometry").is_object()) {
    const util::JsonValue& g = f.get("geometry");
    for (const util::JsonValue& v : g.get("sizes").items()) {
      m.geometry.sizes.push_back(v.as_int<std::uint32_t>());
    }
    for (const util::JsonValue& v : g.get("assocs").items()) {
      m.geometry.assocs.push_back(v.as_int<std::uint32_t>());
    }
    for (const util::JsonValue& v : g.get("ways_disabled").items()) {
      m.geometry.ways_disabled.push_back(v.as_int<std::uint32_t>());
    }
    m.geometry.pattern = g.get("pattern").as_string("fixed") == "random"
                             ? mem::WayDisableConfig::Pattern::kRandom
                             : mem::WayDisableConfig::Pattern::kFixed;
    m.geometry.way_seed = parse_hex64(g.get("way_seed"));
  }
  if (f.get("trace").is_object()) {
    const util::JsonValue& t = f.get("trace");
    m.trace.path = t.get("path").as_string();
    m.trace.shard_instructions =
        t.get("shard_instructions").as_int<std::uint64_t>();
    m.trace.fingerprint = parse_hex64(t.get("fingerprint"));
    m.trace.records = t.get("records").as_int<std::uint64_t>();
  }
  for (const util::JsonValue& s : f.get("schemes").items()) {
    m.schemes.push_back(s.as_string());
  }
  for (const util::JsonValue& a : f.get("apps").items()) {
    m.apps.push_back(a.as_string());
  }
  if (m.total_cells == 0) bad_document("manifest grid is empty");
  if (m.unit_count == 0 ||
      m.unit_count != (m.total_cells + m.unit_cells - 1) / m.unit_cells) {
    bad_document("manifest sharding is inconsistent");
  }
  return m;
}

Manifest manifest_for(const CampaignSpec& spec, std::uint64_t unit_cells) {
  Manifest m;
  m.config_hash = campaign_config_hash(spec);
  m.base_seed = spec.base_seed;
  m.instructions = resolved_instruction_count(spec);
  m.trials = spec.trials == 0 ? 1 : spec.trials;
  m.derive_seeds = spec.derive_seeds;
  m.variant_count = static_cast<std::uint32_t>(spec.variants.size());
  m.app_count = static_cast<std::uint32_t>(spec.app_axis());
  m.total_cells = static_cast<std::uint64_t>(spec.variants.size()) *
                  spec.app_axis() * m.trials;
  m.trace = spec.trace;
  m.unit_cells = unit_cells == 0 ? 1 : unit_cells;
  m.unit_count = static_cast<std::uint32_t>(
      (m.total_cells + m.unit_cells - 1) / m.unit_cells);
  if (spec.geometry.enabled()) {
    // The expanded labels are not cli-resolvable; serialize the recorded
    // base labels plus the axes, and let readers re-expand.
    m.geometry = spec.geometry;
    m.schemes = spec.geometry.base_schemes;
  } else {
    for (const SchemeVariant& v : spec.variants) m.schemes.push_back(v.label);
  }
  for (const trace::App app : spec.apps) {
    m.apps.push_back(trace::to_string(app));
  }
  // The window is uniform for CLI-built specs; take it from the first
  // variant. Mixed-window specs are library territory — their workers get
  // the spec programmatically and this field is ignored (the config hash,
  // which folds every variant's window, still guards the match).
  if (!spec.variants.empty()) {
    m.decay_window = spec.variants.front().scheme.decay_window;
  }
  m.fault_model = fault::to_string(spec.config.fault_model);
  m.fault_probability = spec.config.fault_probability;
  m.sampling = spec.sampling;
  return m;
}

CampaignSpec spec_from_manifest(const Manifest& manifest) {
  CampaignSpec spec;
  for (const std::string& name : manifest.schemes) {
    spec.variants.emplace_back(
        name, cli::scheme_by_name(name).with_decay_window(
                  manifest.decay_window));
  }
  for (const std::string& name : manifest.apps) {
    spec.apps.push_back(cli::app_by_name(name));
  }
  spec.trials = manifest.trials;
  spec.base_seed = manifest.base_seed;
  spec.instructions = manifest.instructions;
  spec.derive_seeds = manifest.derive_seeds;
  spec.config.fault_model = cli::fault_by_name(manifest.fault_model);
  spec.config.fault_probability = manifest.fault_probability;
  spec.sampling = manifest.sampling;
  spec.trace = manifest.trace;
  if (manifest.geometry.enabled()) {
    // Re-run the deterministic expansion over the base variants; the
    // caller's config-hash check proves it reproduced the original grid.
    spec.geometry = manifest.geometry;
    spec.geometry.base_schemes.clear();
    expand_geometry_sweep(spec);
  }
  return spec;
}

std::string manifest_path(const std::string& spool) {
  return spool + "/manifest.json";
}

std::string unit_path(const std::string& spool, std::uint32_t unit) {
  return spool + "/units/" + unit_file_name(unit) + ".json";
}

std::string claim_path(const std::string& spool, std::uint32_t unit) {
  return spool + "/claims/" + unit_file_name(unit) + ".claim";
}

void init_spool(const std::string& spool, const Manifest& manifest) {
  util::fs::make_directories(spool + "/units");
  util::fs::make_directories(spool + "/claims");
  util::fs::atomic_write_text_file(manifest_path(spool), manifest.to_json());
}

Manifest load_manifest(const std::string& spool) {
  return Manifest::parse(util::fs::read_text_file(manifest_path(spool)));
}

std::size_t clear_stale_claims(const std::string& spool,
                               std::uint32_t unit_count,
                               std::vector<std::uint32_t>* cleared_units) {
  std::size_t cleared = 0;
  for (std::uint32_t u = 0; u < unit_count; ++u) {
    if (util::fs::exists(claim_path(spool, u)) &&
        !util::fs::exists(unit_path(spool, u))) {
      if (util::fs::remove_file(claim_path(spool, u))) {
        ++cleared;
        if (cleared_units != nullptr) cleared_units->push_back(u);
      }
    }
  }
  // A worker killed mid-publication can also leave a temp file next to the
  // unit records; they are never read (readers open exact paths) but are
  // dead weight, so sweep them too.
  for (const std::string& name : util::fs::list_directory(spool + "/units")) {
    if (name.find(".tmp.") != std::string::npos) {
      util::fs::remove_file(spool + "/units/" + name);
    }
  }
  return cleared;
}

OpenedSpool open_spool(const std::string& spool, const Manifest& manifest,
                       bool resume, bool log_events) {
  OpenedSpool opened;
  if (!resume) {
    if (util::fs::exists(manifest_path(spool))) {
      throw std::invalid_argument(
          "spool " + spool +
          " already has a manifest; use --resume to continue it or point "
          "--farm at a fresh directory");
    }
    init_spool(spool, manifest);
    opened.manifest = manifest;
    return opened;
  }
  opened.manifest = load_manifest(spool);
  if (opened.manifest.config_hash != manifest.config_hash) {
    // hex64 minus its "0x": the bare 16 digits the CLI has always printed.
    throw std::invalid_argument(
        "--resume: spool " + spool +
        " holds a different experiment (config hash " +
        util::hex64(opened.manifest.config_hash).substr(2) + " vs " +
        util::hex64(manifest.config_hash).substr(2) + "); aborting");
  }
  std::vector<std::uint32_t> cleared_units;
  opened.cleared =
      clear_stale_claims(spool, opened.manifest.unit_count, &cleared_units);
  if (log_events) {
    // The sweep is part of the fleet's history: one stale-clear event per
    // reclaimed unit, then the sweep summary, under the coordinator's own
    // event stream.
    EventLog coordinator_log(spool, "coordinator");
    for (const std::uint32_t unit : cleared_units) {
      coordinator_log.append(FarmEventType::kStaleClear,
                             static_cast<std::int64_t>(unit));
    }
    coordinator_log.append(FarmEventType::kResumeSweep, -1, opened.cleared);
  }
  return opened;
}

CellRecord CellRecord::from_cell(const CellResult& cell) {
  CellRecord record;
  record.variant_idx = cell.cell.variant_idx;
  record.app_idx = cell.cell.app_idx;
  record.trial_idx = cell.cell.trial_idx;
  record.seed = cell.cell.seed;
  record.variant = cell.result.scheme;
  record.app = cell.result.app;
  const std::vector<double> values = metric_values(cell.result);
  record.metric_bits.resize(values.size());
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(record.metric_bits.data(), values.data(),
              values.size() * sizeof(double));
  record.sampling = cell.sampling;
  record.geometry = cell.geometry;
  return record;
}

std::vector<double> CellRecord::metrics() const {
  std::vector<double> values(metric_bits.size());
  std::memcpy(values.data(), metric_bits.data(),
              metric_bits.size() * sizeof(double));
  return values;
}

std::string unit_to_json(std::uint32_t unit,
                         const std::vector<CellRecord>& cells) {
  std::string out;
  util::JsonWriter json(out);
  json.begin_object(Layout::kBlock).field("version", kFormatVersion);
  json.field("unit", unit).key("cells").begin_array(Layout::kBlock);
  for (const CellRecord& c : cells) {
    json.begin_object(Layout::kInline).field("variant_idx", c.variant_idx);
    json.field("app_idx", c.app_idx).field("trial", c.trial_idx);
    json.field("seed", util::Hex{c.seed});
    json.field("variant", c.variant).field("app", c.app);
    if (c.geometry.present) append_json(json.key("geometry"), c.geometry);
    json.key("metric_bits").begin_array(Layout::kInline);
    for (const std::uint64_t bits : c.metric_bits) json.value(util::Hex{bits});
    json.end().key("sampling").begin_object(Layout::kInline);
    json.field("sampled", c.sampling.sampled);
    json.field("budget", c.sampling.budget);
    json.field("warmup", c.sampling.warmup_instructions);
    json.field("windows", c.sampling.windows);
    json.field("measured", c.sampling.measured_instructions).end().end();
  }
  json.end().end();
  return out;
}

std::vector<CellRecord> parse_unit_json(const std::string& text,
                                        std::uint32_t expected_unit) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  const int version = doc.get("version").as_int<int>(-1);
  if (version != kFormatVersion) {
    bad_document("unit record version " + std::to_string(version));
  }
  const std::uint32_t unit = doc.get("unit").as_int<std::uint32_t>();
  if (unit != expected_unit) {
    bad_document("unit record is for unit " + std::to_string(unit) +
                 ", expected " + std::to_string(expected_unit));
  }
  std::vector<CellRecord> cells;
  for (const util::JsonValue& c : doc.get("cells").items()) {
    CellRecord record;
    record.variant_idx = c.get("variant_idx").as_int<std::uint32_t>();
    record.app_idx = c.get("app_idx").as_int<std::uint32_t>();
    record.trial_idx = c.get("trial").as_int<std::uint32_t>();
    record.seed = parse_hex64(c.get("seed"));
    record.variant = c.get("variant").as_string();
    record.app = c.get("app").as_string();
    if (c.get("geometry").is_object()) {
      const util::JsonValue& g = c.get("geometry");
      record.geometry.present = true;
      record.geometry.dl1_size_bytes =
          g.get("dl1_size").as_int<std::uint32_t>();
      record.geometry.dl1_assoc = g.get("dl1_assoc").as_int<std::uint32_t>();
      record.geometry.ways_disabled =
          g.get("ways_disabled").as_int<std::uint32_t>();
    }
    for (const util::JsonValue& bits : c.get("metric_bits").items()) {
      record.metric_bits.push_back(parse_hex64(bits));
    }
    const util::JsonValue& s = c.get("sampling");
    record.sampling.sampled = s.get("sampled").as_bool(false);
    record.sampling.budget = s.get("budget").as_int<std::uint64_t>();
    record.sampling.warmup_instructions =
        s.get("warmup").as_int<std::uint64_t>();
    record.sampling.windows = s.get("windows").as_int<std::uint32_t>();
    record.sampling.measured_instructions =
        s.get("measured").as_int<std::uint64_t>();
    cells.push_back(std::move(record));
  }
  return cells;
}

std::vector<CellRecord> run_unit(
    const CampaignSpec& spec, const WorkUnit& unit,
    std::uint64_t instructions,
    const std::function<void(std::uint64_t)>& on_cell) {
  const std::size_t apps = spec.app_axis();
  const std::size_t trials = spec.trials == 0 ? 1 : spec.trials;
  std::vector<CellRecord> records;
  records.reserve(static_cast<std::size_t>(unit.cells()));
  for (std::uint64_t index = unit.begin; index < unit.end; ++index) {
    if (on_cell) on_cell(index);
    // Same coordinate decomposition as CampaignRunner::run — grid order is
    // the one total order every executor shares.
    const std::size_t variant_idx =
        static_cast<std::size_t>(index / (apps * trials));
    const std::size_t app_idx =
        static_cast<std::size_t>((index / trials) % apps);
    const std::size_t trial_idx = static_cast<std::size_t>(index % trials);
    records.push_back(CellRecord::from_cell(run_campaign_cell(
        spec, variant_idx, app_idx, trial_idx, instructions)));
  }
  return records;
}

WorkerReport run_worker_loop(
    const std::string& spool, const CampaignSpec& spec,
    std::uint32_t max_units,
    const std::function<void(const WorkUnit&)>& on_unit_done,
    WorkerTelemetry* telemetry) {
  const Manifest manifest = load_manifest(spool);
  if (campaign_config_hash(spec) != manifest.config_hash) {
    bad_document("spec does not match the spool manifest (config hash " +
                 util::hex64(campaign_config_hash(spec)) + " vs manifest " +
                 util::hex64(manifest.config_hash) + ")");
  }
  const std::vector<WorkUnit> units =
      shard_units(manifest.total_cells, manifest.unit_cells);
  std::string claim_body;
  util::JsonWriter claim(claim_body);
  claim.begin_object(Layout::kInline).field("pid", ::getpid()).end();
  if (telemetry != nullptr) telemetry->on_start(manifest);

  std::function<void(std::uint64_t)> on_cell;
  const WorkUnit* current = nullptr;
  if (telemetry != nullptr) {
    on_cell = [&telemetry, &current](std::uint64_t cell_index) {
      telemetry->on_cell_start(*current, cell_index);
    };
  }

  WorkerReport report;
  for (const WorkUnit& unit : units) {
    if (max_units != 0 && report.units_run >= max_units) break;
    if (util::fs::exists(unit_path(spool, unit.index))) continue;
    if (!util::fs::try_create_exclusive(claim_path(spool, unit.index),
                                        claim_body)) {
      // Someone else owns it (or owned it and died — see resume).
      if (telemetry != nullptr) telemetry->on_claim_conflict(unit);
      continue;
    }
    if (telemetry != nullptr) telemetry->on_claim(unit);
    current = &unit;
    const std::vector<CellRecord> records =
        run_unit(spec, unit, manifest.instructions, on_cell);
    util::fs::atomic_write_text_file(unit_path(spool, unit.index),
                                     unit_to_json(unit.index, records));
    ++report.units_run;
    report.cells_run += unit.cells();
    if (telemetry != nullptr) telemetry->on_unit_published(unit);
    if (on_unit_done) on_unit_done(unit);
  }
  if (telemetry != nullptr) telemetry->on_exit(report);
  return report;
}

int run_worker(const std::string& spool, const WorkerOptions& options) {
  try {
    const CampaignSpec spec = spec_from_manifest(load_manifest(spool));
    WorkerOptions named = options;
    if (named.worker_id.empty()) {
      named.worker_id = "pid" + std::to_string(::getpid());
    }
    std::unique_ptr<WorkerTelemetry> telemetry;
    if (options.heartbeat_seconds > 0.0) {
      telemetry = std::make_unique<WorkerTelemetry>(spool, named);
    }
    double epoch_unix_us = 0.0;
    if (options.prof) {
      obs::prof::begin_capture();
      epoch_unix_us = unix_now_seconds() * 1e6;
    }
    const auto on_unit_done = [&](const WorkUnit& unit) {
      if (!options.quiet) {
        std::fprintf(stderr, "worker %d: unit %u done (%llu cell(s))\n",
                     ::getpid(), unit.index,
                     static_cast<unsigned long long>(unit.cells()));
      }
    };
    const WorkerReport report = run_worker_loop(
        spool, spec, options.max_units, on_unit_done, telemetry.get());
    if (options.prof) {
      const obs::prof::Profile profile = obs::prof::end_capture();
      util::fs::make_directories(worker_trace_dir(spool));
      util::fs::atomic_write_text_file(
          worker_trace_path(spool, named.worker_id),
          obs::prof::to_chrome_trace(profile, "worker " + named.worker_id,
                                     ::getpid(), epoch_unix_us));
    }
    if (!options.quiet) {
      std::printf("worker %d: ran %u unit(s), %llu cell(s)\n", ::getpid(),
                  report.units_run,
                  static_cast<unsigned long long>(report.cells_run));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "worker: %s\n", error.what());
    return 1;
  }
  return 0;
}

SpoolStatus scan_spool(const std::string& spool, const Manifest& manifest) {
  SpoolStatus status;
  status.unit_count = manifest.unit_count;
  const std::vector<WorkUnit> units =
      shard_units(manifest.total_cells, manifest.unit_cells);
  // One readdir per directory instead of unit_count stat calls: spools
  // with hundreds of thousands of units scan in one pass.
  std::vector<bool> done(manifest.unit_count, false);
  for (const std::string& name : util::fs::list_directory(spool + "/units")) {
    unsigned unit = 0;
    if (std::sscanf(name.c_str(), "unit_%u.json", &unit) == 1 &&
        name == unit_file_name(unit) + ".json" && unit < done.size()) {
      done[unit] = true;
      ++status.units_done;
      status.cells_done += units[unit].cells();
    }
  }
  for (const std::string& name :
       util::fs::list_directory(spool + "/claims")) {
    unsigned unit = 0;
    if (std::sscanf(name.c_str(), "unit_%u.claim", &unit) == 1 &&
        unit < done.size() && !done[unit]) {
      ++status.claims_outstanding;
    }
  }
  return status;
}

FarmAggregator::FarmAggregator(const Manifest& manifest, std::ostream* csv,
                               std::ostream* json)
    : manifest_(manifest), csv_(csv), json_(json), json_writer_(json_text_) {
  if (csv_ != nullptr) {
    *csv_ << results_csv_header(manifest_.sampling.enabled(),
                                manifest_.geometry.enabled());
  }
  if (json_ != nullptr) {
    CampaignMeta meta;
    meta.base_seed = manifest_.base_seed;
    meta.config_hash = manifest_.config_hash;
    meta.instructions = manifest_.instructions;
    meta.trials = manifest_.trials;
    meta.sampling = manifest_.sampling;
    meta.geometry = manifest_.geometry.enabled();
    // Farm exports never carry timing: wall time depends on the worker
    // fleet, and the byte-identity guarantee is against
    // to_json(campaign, include_timing=false).
    results_json_prologue(json_writer_, meta,
                          static_cast<std::size_t>(manifest_.total_cells),
                          /*include_timing=*/false);
    flush_json();
  }
}

void FarmAggregator::add_unit(std::uint32_t unit,
                              const std::vector<CellRecord>& records) {
  if (finished_) bad_document("aggregator already finished");
  if (unit != next_unit_) {
    bad_document("units must stream in order: got unit " +
                 std::to_string(unit) + ", expected " +
                 std::to_string(next_unit_));
  }
  ++next_unit_;
  const bool sampled = manifest_.sampling.enabled();
  const bool geometry = manifest_.geometry.enabled();
  std::string row;  // scratch for one cell; capacity bounded by the schema
  for (const CellRecord& record : records) {
    ++cells_emitted_;
    if (cells_emitted_ > manifest_.total_cells) {
      bad_document("more cells than the manifest grid holds");
    }
    const std::vector<double> metrics = record.metrics();
    if (csv_ != nullptr) {
      row.clear();
      append_results_csv_row(row, record.variant, record.app,
                             record.trial_idx, record.seed, metrics,
                             sampled ? &record.sampling : nullptr,
                             geometry ? &record.geometry : nullptr);
      *csv_ << row;
    }
    if (json_ != nullptr) {
      append_results_json_cell(json_writer_, record.variant, record.app,
                               record.trial_idx, record.seed, metrics,
                               sampled ? &record.sampling : nullptr,
                               geometry ? &record.geometry : nullptr);
      flush_json();
    }
  }
}

void FarmAggregator::finish() {
  if (finished_) return;
  if (cells_emitted_ != manifest_.total_cells) {
    bad_document("aggregated " + std::to_string(cells_emitted_) + " of " +
                 std::to_string(manifest_.total_cells) +
                 " cells — refusing to export a truncated campaign");
  }
  if (json_ != nullptr) {
    results_json_epilogue(json_writer_);
    flush_json();
  }
  finished_ = true;
}

void FarmAggregator::flush_json() {
  *json_ << json_text_;
  json_text_.clear();
}

std::size_t FarmAggregator::state_bytes() const noexcept {
  // Fixed-size fields only: the streamed cells never accumulate here.
  return sizeof(*this);
}

void aggregate_spool(const std::string& spool, const Manifest& manifest,
                     const std::string& csv_out, const std::string& json_out) {
  const auto open = [](std::ofstream& out, const std::string& path) {
    if (path.empty()) return;
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out) bad_document("cannot open '" + path + "' for write");
  };
  const auto close = [](std::ofstream& out, const std::string& path) {
    if (!out.is_open()) return;
    out.flush();
    if (!out) bad_document("write to '" + path + "' failed");
  };
  std::ofstream csv;
  std::ofstream json;
  open(csv, csv_out);
  open(json, json_out);
  FarmAggregator aggregator(manifest, csv.is_open() ? &csv : nullptr,
                            json.is_open() ? &json : nullptr);
  for (std::uint32_t u = 0; u < manifest.unit_count; ++u) {
    aggregator.add_unit(
        u, parse_unit_json(util::fs::read_text_file(unit_path(spool, u)), u));
  }
  aggregator.finish();
  close(csv, csv_out);
  close(json, json_out);
}

std::optional<ChildExit> wait_for_child(std::span<const pid_t> children,
                                        double timeout_seconds) {
  sigset_t sigchld;
  sigemptyset(&sigchld);
  sigaddset(&sigchld, SIGCHLD);
  sigset_t previous;
  ::pthread_sigmask(SIG_BLOCK, &sigchld, &previous);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  std::optional<ChildExit> reaped;
  while (!reaped) {
    for (const pid_t pid : children) {
      int status = 0;
      const pid_t result = ::waitpid(pid, &status, WNOHANG);
      if (result == 0) continue;
      reaped = ChildExit{pid, result == pid && WIFEXITED(status)
                                  ? WEXITSTATUS(status)
                                  : -1};
      break;
    }
    if (reaped) break;
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) break;
    const auto nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec wait{static_cast<time_t>(nanos / 1000000000),
                        static_cast<long>(nanos % 1000000000)};
    ::sigtimedwait(&sigchld, nullptr, &wait);  // a signal, EAGAIN or EINTR
  }
  ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  return reaped;
}

int run_coordinator(const std::string& spool, const CampaignSpec& spec,
                    const CoordinatorOptions& options) {
  OpenedSpool opened;
  try {
    opened = open_spool(spool, manifest_for(spec, options.unit_cells),
                        options.resume,
                        /*log_events=*/options.heartbeat_seconds > 0.0);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm: %s\n", error.what());
    return 1;
  }
  const Manifest& manifest = opened.manifest;
  if (opened.cleared != 0 && !options.quiet) {
    std::printf("resume: cleared %zu stale claim(s)\n", opened.cleared);
  }
  // A worker beyond the unit count would only find nothing to claim.
  const unsigned workers = std::min(options.workers, manifest.unit_count);
  std::printf("farm: %u scheme(s) x %u app(s) x %u trial(s) = %llu cells in "
              "%u unit(s) of %llu, spool %s, %u worker(s)\n",
              manifest.variant_count, manifest.app_count, manifest.trials,
              static_cast<unsigned long long>(manifest.total_cells),
              manifest.unit_count,
              static_cast<unsigned long long>(manifest.unit_cells),
              spool.c_str(), workers);

  obs::FarmProgressOptions progress_options;
  progress_options.enabled = options.progress;
  obs::FarmProgressReporter reporter(progress_options, manifest.unit_count,
                                     manifest.total_cells);

  if (workers == 0 && !options.quiet) {
    // No workers to fork: this invocation initializes or inspects a spool
    // for externally started workers — print the census instead of exiting
    // silently (the same scan and staleness policy --farm-status uses).
    try {
      FarmStatusOptions status_options;
      status_options.staleness = options.staleness;
      print_farm_status(spool,
                        collect_farm_status(spool, manifest, status_options));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "farm: %s\n", error.what());
    }
  }

  // Each child runs the --worker loop and leaves with _exit, so it never
  // returns into the caller. The coordinator never starts a thread, so
  // each fork copies a single-threaded process.
  WorkerOptions worker_options;
  worker_options.heartbeat_seconds = options.heartbeat_seconds;
  worker_options.prof = !options.farm_trace_out.empty();
  worker_options.quiet = true;
  std::fflush(nullptr);
  std::vector<pid_t> children;
  unsigned failed_workers = 0;
  for (unsigned w = 0; w < workers; ++w) {
    worker_options.worker_id = "w" + std::to_string(w);
    const pid_t pid = ::fork();
    if (pid == 0) {
      int status = 1;
      try {
        status = run_worker(spool, worker_options);
      } catch (...) {
      }
      std::fflush(nullptr);
      ::_exit(status);
    }
    if (pid < 0) {
      std::fprintf(stderr, "fork: %s\n", std::strerror(errno));
      ++failed_workers;
    } else {
      children.push_back(pid);
    }
  }

  while (!children.empty()) {
    const SpoolStatus now = scan_spool(spool, manifest);
    reporter.poll(now.units_done, now.cells_done,
                  static_cast<unsigned>(children.size()));
    if (const auto exit = wait_for_child(children, kProgressPollSeconds)) {
      std::erase(children, exit->pid);
      if (exit->exit_code != 0) ++failed_workers;
    }
  }

  SpoolStatus final_status;
  try {
    final_status = scan_spool(spool, manifest);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm: %s\n", error.what());
    return 1;
  }
  reporter.finish(final_status.units_done, final_status.cells_done);
  if (failed_workers != 0) {
    std::fprintf(stderr, "farm: %u worker(s) exited abnormally\n",
                 failed_workers);
  }

  if (!options.farm_trace_out.empty()) {
    // Merge the per-worker captures with the coordinator-synthesized unit
    // spans into one fleet timeline. Useful even for an incomplete grid,
    // so write it before the completeness gate.
    try {
      util::fs::atomic_write_text_file(options.farm_trace_out,
                                       merge_fleet_trace(spool));
      std::printf("wrote fleet trace to %s (open in Perfetto)\n",
                  options.farm_trace_out.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "farm trace: %s\n", error.what());
      return 1;
    }
  }

  if (!final_status.complete()) {
    std::printf("farm: %u/%u unit(s) complete (%llu/%llu cells); resume "
                "with: run_campaign --farm=%s --resume [--workers=N]\n",
                final_status.units_done, final_status.unit_count,
                static_cast<unsigned long long>(final_status.cells_done),
                static_cast<unsigned long long>(manifest.total_cells),
                spool.c_str());
    // --workers=0 initializes or inspects a spool for externally started
    // workers; an incomplete grid is its expected outcome, not a failure.
    return workers == 0 ? 0 : 1;
  }

  try {
    aggregate_spool(spool, manifest, options.csv_path, options.json_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm aggregate: %s\n", error.what());
    return 1;
  }
  const double wall = reporter.elapsed_seconds();
  std::printf("farm: %llu cells in %.2fs wall (%.2f cells/sec), config hash "
              "%016llx, base seed %016llx\n",
              static_cast<unsigned long long>(manifest.total_cells), wall,
              wall > 0.0 ? static_cast<double>(manifest.total_cells) / wall
                         : 0.0,
              static_cast<unsigned long long>(manifest.config_hash),
              static_cast<unsigned long long>(manifest.base_seed));
  for (const std::string* path : {&options.csv_path, &options.json_path}) {
    if (!path->empty()) std::printf("wrote %s\n", path->c_str());
  }
  return 0;
}

}  // namespace icr::sim::farm
