// icr_sim — command-line driver for the ICR simulator.
//
// One binary to run any (application | recorded trace) under any protection
// scheme with every §3/§5 knob exposed, printing either a human-readable
// report or a CSV row for scripting.
//
//   icr_sim --app=mcf --scheme=ICR-P-PS(S) --instructions=1000000
//   icr_sim --app=vpr --scheme=BaseECC --fault-prob=1e-4 --fault-model=column
//   icr_sim --trace=run.icrt --window=1000 --victim=dead-first --csv
//   icr_sim --record=run.icrt --app=gcc --instructions=200000
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs_io.h"
#include "src/obs/prof.h"
#include "src/obs/prof_io.h"
#include "src/rel/rel_io.h"
#include "src/sim/campaign.h"
#include "src/sim/cli.h"
#include "src/sim/experiment.h"
#include "src/sim/results_io.h"
#include "src/sim/sampling.h"
#include "src/sim/serve.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/util/json.h"
#include "src/util/table.h"

using namespace icr;
using sim::cli::app_by_name;
using sim::cli::fault_by_name;
using sim::cli::parse_flag;
using sim::cli::scheme_by_name;
using sim::cli::victim_by_name;

namespace {

struct Options {
  std::string app = "gzip";
  std::string trace_path;   // replay instead of the synthetic app
  std::string record_path;  // record the app's trace and exit
  std::string scheme = "ICR-P-PS(S)";
  std::uint64_t instructions = 0;  // 0 = ICR_SIM_INSTRUCTIONS / 1M default
  std::uint64_t window = 0;
  std::string victim = "dead-only";
  bool leave_replicas = false;
  bool write_through = false;
  std::uint32_t rcache = 0;
  std::string fault_model = "random";
  double fault_prob = 0.0;
  std::string geometry;  // dL1 override: SIZE/ASSOC (e.g. 16K/4)
  std::uint32_t ways_disabled = 0;
  std::uint32_t way_mask = 0;  // explicit per-set mask; overrides the count
  std::string way_pattern = "fixed";
  std::uint64_t way_seed = 0x0DDB17ULL;
  std::uint64_t warmup = 0;
  std::uint32_t sample_windows = 0;
  std::uint64_t sample_width = 0;
  std::string sample_mode = "systematic";
  std::uint64_t sample_seed = 0x5A3D11ULL;
  bool csv = false;
  std::uint64_t stats_interval = 0;  // 0 = off (default when outputs ask)
  std::string intervals_out;
  std::string heatmap_out;
  std::string trace_out;
  std::string trace_filter = "all";
  bool rel = false;
  std::string rel_out;
  std::string rel_intervals_out;
  bool prof = false;
  std::string prof_out;
  std::string serve_spec;  // HTTP status server: PORT or ADDR:PORT
};

void usage() {
  std::puts(
      "icr_sim — ICR (DSN'03) cache-reliability simulator\n"
      "  --app=NAME            gzip|vpr|gcc|mcf|parser|mesa|vortex|bzip2\n"
      "  --trace=FILE          replay a recorded .icrt trace instead\n"
      "  --record=FILE         record the app's trace to FILE and exit\n"
      "  --scheme=NAME         BaseP|BaseECC|BaseECC-spec|ICR-{P,ECC}-{PS,PP}({S,LS})\n"
      "  --instructions=N      instructions to simulate (default 1M)\n"
      "  --window=N            dead-block decay window in cycles (default 0)\n"
      "  --victim=POLICY       dead-only|dead-first|replica-first|replica-only\n"
      "  --leave-replicas      keep replicas on primary eviction (§5.6)\n"
      "  --write-through       write-through dL1 + 8-entry buffer (§5.8)\n"
      "  --rcache=N            attach an N-entry Kim&Somani R-Cache\n"
      "  --fault-model=M       random|adjacent|column|direct\n"
      "  --fault-prob=P        per-cycle injection probability (default 0)\n"
      "  --geometry=SIZE/WAYS  dL1 geometry override, e.g. 16K/4 or 8192/2\n"
      "  --ways-disabled=K     disable K ways per dL1 set (docs/GEOMETRY.md)\n"
      "  --way-mask=M          explicit disabled-way bitmask (overrides K)\n"
      "  --way-pattern=P       fixed|random placement of disabled ways\n"
      "  --way-seed=S          per-set draw seed for --way-pattern=random\n"
      "  --warmup=N            functional warmup for N instructions before\n"
      "                        measuring (docs/SAMPLING.md)\n"
      "  --sample-windows=K    interval sampling: measure K windows, report\n"
      "                        weighted whole-run estimates\n"
      "  --sample-width=N      instructions per window (default: budget/10K)\n"
      "  --sample-mode=M       systematic|random window placement\n"
      "  --sample-seed=S       placement stream for --sample-mode=random\n"
      "  --csv                 one CSV row instead of the report\n"
      "  --stats-interval=N    sample telemetry every N instructions\n"
      "                        (default 100000 when an output below is set)\n"
      "  --intervals-out=FILE  write the per-interval telemetry CSV\n"
      "  --heatmap-out=FILE    write the per-set replica occupancy CSV\n"
      "  --trace-out=FILE      write the NDJSON event trace\n"
      "  --trace-filter=LIST   categories: replication,eviction,fault,decay\n"
      "                        or 'all' (default)\n"
      "  --rel                 analytical reliability model: vulnerability\n"
      "                        breakdown appended to the report\n"
      "  --rel-out=FILE        write the reliability report as JSON\n"
      "  --rel-intervals-out=F write the lifetime-interval taxonomy CSV\n"
      "  --prof                profile the simulator itself: self-time\n"
      "                        table of host-side zones on stderr\n"
      "  --prof-out=FILE       write the capture as Chrome trace-event JSON\n"
      "                        (open in Perfetto; implies --prof)\n"
      "  --serve=[ADDR:]PORT   embedded HTTP status server for long runs\n"
      "                        (docs/SERVING.md): GET / /healthz /status\n"
      "                        /metrics /events; binds 127.0.0.1 by default\n");
}

void print_csv(const sim::RunResult& r) {
  std::printf(
      "scheme,app,instructions,cycles,ipc,dl1_miss_rate,replication_ability,"
      "loads_with_replica,errors_detected,unrecoverable_loads,"
      "silent_corrupt_loads,energy_nj\n");
  std::printf("%s,%s,%llu,%llu,%.4f,%.5f,%.4f,%.4f,%llu,%llu,%llu,%.1f\n",
              r.scheme.c_str(), r.app.c_str(),
              static_cast<unsigned long long>(r.instructions),
              static_cast<unsigned long long>(r.cycles), r.ipc(),
              r.dl1.miss_rate(), r.dl1.replication_ability(),
              r.dl1.loads_with_replica_fraction(),
              static_cast<unsigned long long>(r.dl1.errors_detected),
              static_cast<unsigned long long>(r.dl1.unrecoverable_loads),
              static_cast<unsigned long long>(r.pipeline.silent_corrupt_loads),
              r.energy.total_nj());
}

void print_report(const sim::RunResult& r) {
  TextTable t("icr_sim: " + r.scheme + " on " + r.app, {"metric", "value"});
  auto add = [&](const char* k, const std::string& v) { t.add_row({k, v}); };
  add("instructions", std::to_string(r.instructions));
  add("cycles", std::to_string(r.cycles));
  add("IPC", format_double(r.ipc(), 3));
  add("dL1 miss rate", format_double(r.dl1.miss_rate(), 4));
  add("L1I miss rate", format_double(r.l1i.miss_rate(), 4));
  add("branch mispredict rate", format_double(r.branch.mispredict_rate(), 4));
  add("replication ability", format_double(r.dl1.replication_ability(), 3));
  add("loads with replica",
      format_double(r.dl1.loads_with_replica_fraction(), 3));
  add("replicas created", std::to_string(r.dl1.replicas_created));
  add("replica fills (leave mode)", std::to_string(r.dl1.replica_fills));
  add("errors detected", std::to_string(r.dl1.errors_detected));
  add("corrected by replica",
      std::to_string(r.dl1.errors_corrected_by_replica));
  add("corrected by ECC", std::to_string(r.dl1.errors_corrected_by_ecc));
  add("corrected by R-Cache",
      std::to_string(r.dl1.errors_corrected_by_rcache));
  add("refetched from L2", std::to_string(r.dl1.errors_refetched_from_l2));
  add("unrecoverable loads", std::to_string(r.dl1.unrecoverable_loads));
  add("silent corrupt loads",
      std::to_string(r.pipeline.silent_corrupt_loads));
  add("L1+L2 dynamic energy (uJ)",
      format_double(r.energy.total_nj() / 1000.0, 2));
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--app", value)) {
      opt.app = value;
    } else if (parse_flag(argv[i], "--trace", value)) {
      opt.trace_path = value;
    } else if (parse_flag(argv[i], "--record", value)) {
      opt.record_path = value;
    } else if (parse_flag(argv[i], "--scheme", value)) {
      opt.scheme = value;
    } else if (parse_flag(argv[i], "--instructions", value)) {
      opt.instructions = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--window", value)) {
      opt.window = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--victim", value)) {
      opt.victim = value;
    } else if (std::strcmp(argv[i], "--leave-replicas") == 0) {
      opt.leave_replicas = true;
    } else if (std::strcmp(argv[i], "--write-through") == 0) {
      opt.write_through = true;
    } else if (parse_flag(argv[i], "--rcache", value)) {
      opt.rcache = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), nullptr, 10));
    } else if (parse_flag(argv[i], "--fault-model", value)) {
      opt.fault_model = value;
    } else if (parse_flag(argv[i], "--fault-prob", value)) {
      opt.fault_prob = std::atof(value.c_str());
    } else if (parse_flag(argv[i], "--geometry", value)) {
      opt.geometry = value;
    } else if (parse_flag(argv[i], "--ways-disabled", value)) {
      opt.ways_disabled = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), nullptr, 10));
    } else if (parse_flag(argv[i], "--way-mask", value)) {
      opt.way_mask = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), nullptr, 0));
    } else if (parse_flag(argv[i], "--way-pattern", value)) {
      opt.way_pattern = value;
    } else if (parse_flag(argv[i], "--way-seed", value)) {
      opt.way_seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (parse_flag(argv[i], "--warmup", value)) {
      opt.warmup = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--sample-windows", value)) {
      opt.sample_windows = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), nullptr, 10));
    } else if (parse_flag(argv[i], "--sample-width", value)) {
      opt.sample_width = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--sample-mode", value)) {
      opt.sample_mode = value;
    } else if (parse_flag(argv[i], "--sample-seed", value)) {
      opt.sample_seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      opt.csv = true;
    } else if (parse_flag(argv[i], "--stats-interval", value)) {
      opt.stats_interval = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_flag(argv[i], "--intervals-out", value)) {
      opt.intervals_out = value;
    } else if (parse_flag(argv[i], "--heatmap-out", value)) {
      opt.heatmap_out = value;
    } else if (parse_flag(argv[i], "--trace-out", value)) {
      opt.trace_out = value;
    } else if (parse_flag(argv[i], "--trace-filter", value)) {
      opt.trace_filter = value;
    } else if (std::strcmp(argv[i], "--rel") == 0) {
      opt.rel = true;
    } else if (parse_flag(argv[i], "--rel-out", value)) {
      opt.rel_out = value;
    } else if (parse_flag(argv[i], "--rel-intervals-out", value)) {
      opt.rel_intervals_out = value;
    } else if (std::strcmp(argv[i], "--prof") == 0) {
      opt.prof = true;
    } else if (parse_flag(argv[i], "--prof-out", value)) {
      opt.prof_out = value;
      opt.prof = true;
    } else if (parse_flag(argv[i], "--serve", value)) {
      opt.serve_spec = value;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    } else {
      sim::cli::unknown_flag("icr_sim", argv[i]);
    }
  }

  const std::uint64_t instructions = opt.instructions != 0
                                         ? opt.instructions
                                         : sim::default_instruction_count();

  if (!opt.record_path.empty()) {
    trace::SyntheticWorkload source(trace::profile_for(app_by_name(opt.app)));
    // ICRT-v2, the one trace container (docs/TRACES.md); `icr_trace record`
    // adds --raw and --chunk-records.
    trace::record_trace_v2(source, instructions, opt.record_path);
    std::printf("recorded %llu instructions of %s to %s (ICRT-v2)\n",
                static_cast<unsigned long long>(instructions),
                opt.app.c_str(), opt.record_path.c_str());
    return 0;
  }

  core::Scheme scheme = scheme_by_name(opt.scheme)
                            .with_decay_window(opt.window)
                            .with_victim_policy(victim_by_name(opt.victim))
                            .with_leave_replicas(opt.leave_replicas);
  if (opt.write_through) scheme = scheme.with_write_through(8);

  sim::SimConfig config = sim::SimConfig::table1();
  config.fault_model = fault_by_name(opt.fault_model);
  config.fault_probability = opt.fault_prob;
  config.rcache_entries = opt.rcache;
  try {
    if (!opt.geometry.empty()) {
      const std::size_t slash = opt.geometry.find('/');
      if (slash == std::string::npos) {
        throw std::invalid_argument("--geometry expects SIZE/WAYS, e.g. 16K/4");
      }
      std::string size_text = opt.geometry.substr(0, slash);
      std::uint64_t mult = 1;
      if (!size_text.empty() &&
          (size_text.back() == 'K' || size_text.back() == 'k')) {
        mult = 1024;
        size_text.pop_back();
      } else if (!size_text.empty() &&
                 (size_text.back() == 'M' || size_text.back() == 'm')) {
        mult = 1024 * 1024;
        size_text.pop_back();
      }
      config.dl1.size_bytes = static_cast<std::uint32_t>(
          std::strtoull(size_text.c_str(), nullptr, 10) * mult);
      config.dl1.associativity = static_cast<std::uint32_t>(std::strtoul(
          opt.geometry.c_str() + slash + 1, nullptr, 10));
      config.dl1.validate();
    }
    if (opt.ways_disabled != 0 || opt.way_mask != 0) {
      if (opt.way_pattern != "fixed" && opt.way_pattern != "random") {
        throw std::invalid_argument("--way-pattern must be fixed or random");
      }
      config.dl1_way_disable.count = opt.ways_disabled;
      config.dl1_way_disable.fixed_mask = opt.way_mask;
      config.dl1_way_disable.pattern =
          opt.way_pattern == "random"
              ? mem::WayDisableConfig::Pattern::kRandom
              : mem::WayDisableConfig::Pattern::kFixed;
      config.dl1_way_disable.seed = opt.way_seed;
      config.dl1_way_disable.validate(config.dl1.associativity);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_sim: %s\n", error.what());
    return 2;
  }

  obs::ObsOptions obsopt;
  obsopt.stats_interval = opt.stats_interval;
  if (obsopt.stats_interval == 0 &&
      (!opt.intervals_out.empty() || !opt.heatmap_out.empty())) {
    obsopt.stats_interval = obs::kDefaultStatsInterval;
  }
  if (!opt.trace_out.empty()) {
    obsopt.trace_categories = obs::parse_category_list(opt.trace_filter);
    if (obsopt.trace_categories == 0) {
      std::fprintf(stderr, "bad --trace-filter '%s'\n",
                   opt.trace_filter.c_str());
      return 2;
    }
  }

  if (!opt.rel_out.empty() || !opt.rel_intervals_out.empty()) opt.rel = true;
  rel::RelOptions relopt;
  relopt.enabled = opt.rel;
  relopt.probability = opt.fault_prob;

  sim::SamplingOptions sampling;
  sampling.warmup_instructions = opt.warmup;
  sampling.windows = opt.sample_windows;
  sampling.window_width = opt.sample_width;
  sampling.mode = sim::cli::sample_mode_by_name(opt.sample_mode);
  sampling.seed = opt.sample_seed;

  if (opt.prof) obs::prof::begin_capture();

  // HTTP status server for long runs. The simulation thread pushes
  // snapshots between run chunks; chunked execution commits the identical
  // instruction stream (simulator contract, tier-1 guarded), so serving
  // never changes results.
  std::unique_ptr<sim::farm::SimStatusSource> serve_source;
  std::unique_ptr<obs::http::Server> serve_server;
  if (!opt.serve_spec.empty()) {
    try {
      sim::farm::ServeOptions serve_options;
      sim::farm::parse_serve_spec(opt.serve_spec, &serve_options);
      serve_source = std::make_unique<sim::farm::SimStatusSource>(
          opt.scheme, opt.trace_path.empty() ? opt.app : opt.trace_path,
          instructions);
      serve_server =
          sim::farm::start_status_server(*serve_source, serve_options);
      std::fprintf(stderr, "serving run status on %s\n",
                   serve_server->url().c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "icr_sim: %s\n", error.what());
      return 2;
    }
  }
  const auto serve_update = [&](sim::Simulator& simulator,
                                std::uint64_t done) {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    if (obs::Observability* o = simulator.observability()) {
      const auto values = o->registry.snapshot_counters();
      const auto& names = o->registry.counter_names();
      counters.reserve(names.size());
      for (std::size_t c = 0; c < names.size(); ++c) {
        counters.emplace_back(names[c], values[c]);
      }
    }
    serve_source->update(done, std::move(counters),
                         opt.prof ? obs::prof::snapshot_zones()
                                  : std::vector<obs::prof::ZoneNode>{});
  };
  const auto run_serving = [&](sim::Simulator& simulator) {
    if (serve_source == nullptr) return simulator.run(instructions);
    // Chunk against the *committed* count, like Simulator::run does for
    // sampling intervals: the commit stage overshoots each call by up to
    // commit_width-1, and absolute targets keep that from accumulating —
    // the chunked run commits the exact stream a single run() would.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(instructions / 200, 10000);
    const std::uint64_t base = simulator.result().instructions;
    const std::uint64_t target = base + instructions;
    sim::RunResult chunk_result = simulator.result();
    while (chunk_result.instructions < target) {
      const std::uint64_t next =
          std::min(chunk_result.instructions + chunk, target);
      chunk_result = simulator.run(next - chunk_result.instructions);
      serve_update(simulator,
                   std::min(chunk_result.instructions - base, instructions));
    }
    return chunk_result;
  };

  sim::RunResult result;
  sim::SampleProvenance provenance;
  obs::CellObservability telemetry;
  rel::RelReport rel_report;
  if (!opt.trace_path.empty()) {
    // Replay path: the recorded trace drives the exact same Simulator
    // wiring the synthetic path uses, so a replayed trace reproduces its
    // generator-driven run bit for bit (guarded by tier-1 test).
    std::unique_ptr<trace::StreamingTraceSource> source;
    try {
      sim::check_trace_label(opt.trace_path, opt.trace_path);
      source = std::make_unique<trace::StreamingTraceSource>(opt.trace_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "icr_sim: %s\n", error.what());
      return 1;
    }
    // Provenance header; stderr under --csv so stdout stays parseable.
    std::fprintf(opt.csv ? stderr : stdout,
                 "replaying %s: ICRT-v%u, %llu record(s), fingerprint "
                 "0x%016llx\n",
                 opt.trace_path.c_str(), source->info().version,
                 static_cast<unsigned long long>(source->info().records),
                 static_cast<unsigned long long>(source->info().fingerprint));
    sim::Simulator simulator(config, scheme, std::move(source),
                             opt.trace_path);
    if (obsopt.any()) simulator.enable_observability(obsopt);
    if (relopt.enabled) simulator.enable_rel(relopt);
    if (sampling.enabled()) {
      sim::SampledRunResult sampled =
          sim::SamplingController(simulator, sampling).run(instructions);
      result = std::move(sampled.estimate);
      provenance = sampled.provenance;
      if (serve_source != nullptr) serve_update(simulator, instructions);
    } else {
      result = run_serving(simulator);
    }
    if (obsopt.any()) telemetry = simulator.collect_observability();
    if (relopt.enabled) rel_report = simulator.collect_rel();
  } else if (obsopt.any() || relopt.enabled || sampling.enabled() ||
             serve_source != nullptr) {
    sim::Simulator simulator(config, scheme,
                             trace::profile_for(app_by_name(opt.app)));
    if (obsopt.any()) simulator.enable_observability(obsopt);
    if (relopt.enabled) simulator.enable_rel(relopt);
    if (sampling.enabled()) {
      sim::SampledRunResult sampled =
          sim::SamplingController(simulator, sampling).run(instructions);
      result = std::move(sampled.estimate);
      provenance = sampled.provenance;
      if (serve_source != nullptr) serve_update(simulator, instructions);
    } else {
      result = run_serving(simulator);
    }
    if (obsopt.any()) telemetry = simulator.collect_observability();
    if (relopt.enabled) rel_report = simulator.collect_rel();
  } else {
    result =
        sim::run_one(app_by_name(opt.app), scheme, config, instructions);
  }
  if (serve_source != nullptr) serve_source->finish();

  // End the capture before reporting: the simulation is what we profile,
  // not the table rendering. The table goes to stderr so --csv stdout
  // stays machine-readable.
  if (opt.prof) {
    const obs::prof::Profile profile = obs::prof::end_capture();
    std::fputs(obs::prof::format_self_time_table(profile).c_str(), stderr);
    if (!opt.prof_out.empty()) {
      sim::write_text_file(opt.prof_out, obs::prof::to_chrome_trace(
                                             profile, "icr_sim"));
      std::fprintf(stderr, "wrote host profile to %s\n",
                   opt.prof_out.c_str());
    }
  }

  if (opt.csv) {
    print_csv(result);
  } else {
    print_report(result);
    if (provenance.sampled) {
      std::printf("sampling: warmup %llu, %u window(s) (%s), measured "
                  "%llu of %llu instructions (%.1f%% detailed coverage) — "
                  "metrics are estimates\n",
                  static_cast<unsigned long long>(
                      provenance.warmup_instructions),
                  provenance.windows, sim::to_string(sampling.mode),
                  static_cast<unsigned long long>(
                      provenance.measured_instructions),
                  static_cast<unsigned long long>(provenance.budget),
                  100.0 * provenance.coverage());
    }
    if (opt.rel) std::fputs(rel::format_report(rel_report).c_str(), stdout);
  }

  const obs::CellTag tag{result.scheme, result.app, 0};
  if (!opt.rel_out.empty()) {
    std::string json;
    util::JsonWriter writer(json);
    rel::append_json(writer, rel_report, tag);
    sim::write_text_file(opt.rel_out, json);
    std::printf("wrote reliability report to %s\n", opt.rel_out.c_str());
  }
  if (!opt.rel_intervals_out.empty()) {
    sim::write_text_file(opt.rel_intervals_out,
                         rel::intervals_to_csv(rel_report, tag));
    std::printf("wrote %zu interval classes to %s\n",
                rel_report.intervals.size(), opt.rel_intervals_out.c_str());
  }
  if (!opt.intervals_out.empty()) {
    sim::write_text_file(opt.intervals_out,
                         obs::intervals_to_csv(telemetry.intervals, tag));
    std::printf("wrote %zu intervals to %s\n",
                telemetry.intervals.interval_count(),
                opt.intervals_out.c_str());
  }
  if (!opt.heatmap_out.empty()) {
    sim::write_text_file(opt.heatmap_out,
                         obs::occupancy_to_csv(telemetry.intervals, tag));
    std::printf("wrote occupancy heatmap to %s\n", opt.heatmap_out.c_str());
  }
  if (!opt.trace_out.empty()) {
    std::string ndjson;
    obs::append_ndjson(ndjson, telemetry.events, tag);
    sim::write_text_file(opt.trace_out, ndjson);
    std::printf("wrote %zu events to %s (%llu emitted, %llu dropped)\n",
                telemetry.events.size(), opt.trace_out.c_str(),
                static_cast<unsigned long long>(telemetry.trace_emitted),
                static_cast<unsigned long long>(telemetry.trace_dropped));
  }

  // Inline interval summary when sampling was on but nobody asked for the
  // raw CSV (and the single-line --csv mode isn't active).
  if (obsopt.stats_interval != 0 && opt.intervals_out.empty() && !opt.csv) {
    const auto pts = obs::interval_points(telemetry.intervals);
    const obs::IntervalSummary s = obs::summarize(pts);
    TextTable t("interval telemetry (" +
                    std::to_string(obsopt.stats_interval) + " instr/sample)",
                {"metric", "mean", "peak", "final"});
    t.add_row({"dL1 miss rate", format_double(s.mean_miss_rate, 4),
               format_double(s.peak_miss_rate, 4),
               format_double(s.final_miss_rate, 4)});
    t.add_row({"replication ability",
               format_double(s.mean_replication_ability, 3),
               format_double(s.peak_replication_ability, 3),
               format_double(s.final_replication_ability, 3)});
    t.add_row({"IPC", format_double(s.mean_ipc, 3), "-", "-"});
    t.print();

    const auto phases = obs::segment_phases(pts);
    TextTable p("phases (miss-rate segmentation, " +
                    std::to_string(phases.size()) + " found)",
                {"phase", "intervals", "miss rate", "repl ability", "IPC"});
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const obs::Phase& ph = phases[i];
      p.add_row({std::to_string(i),
                 std::to_string(ph.first_interval) + ".." +
                     std::to_string(ph.last_interval),
                 format_double(ph.mean_miss_rate, 4),
                 format_double(ph.mean_replication_ability, 3),
                 format_double(ph.mean_ipc, 3)});
    }
    p.print();
  }
  return 0;
}
