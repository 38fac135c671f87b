// icr_sim — command-line driver for the ICR simulator.
//
// One binary to run any (application | recorded trace) under any protection
// scheme with every §3/§5 knob exposed, printing either a human-readable
// report or a CSV row for scripting.
//
//   icr_sim --app=mcf --scheme=ICR-P-PS(S) --instructions=1000000
//   icr_sim --app=vpr --scheme=BaseECC --fault-prob=1e-4 --fault-model=column
//   icr_sim --trace=run.icrt --window=1000 --victim=dead-first --csv
//
// Traces are recorded with `icr_trace record` (docs/TRACES.md).
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/obs_io.h"
#include "src/obs/prof.h"
#include "src/obs/prof_io.h"
#include "src/rel/rel_io.h"
#include "src/sim/campaign.h"
#include "src/sim/cli.h"
#include "src/sim/results_io.h"
#include "src/sim/sampling.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/util/json.h"
#include "src/util/table.h"

using namespace icr;
using sim::cli::app_by_name;
using sim::cli::fault_by_name;
using sim::cli::number_flag;
using sim::cli::parse_flag;
using sim::cli::scheme_by_name;
using sim::cli::victim_by_name;

namespace {

struct Options {
  sim::cli::RunFlags run{"icr_sim"};  // flags shared with run_campaign
  std::string app = "gzip";
  std::string trace_path;  // replay instead of the synthetic app
  std::string scheme = "ICR-P-PS(S)";
  std::string victim = "dead-only";
  bool leave_replicas = false;
  bool write_through = false;
  std::uint32_t rcache = 0;
  std::string geometry;  // dL1 override: SIZE/ASSOC (e.g. 16K/4)
  std::uint32_t ways_disabled = 0;
  std::uint32_t way_mask = 0;  // explicit per-set mask; overrides the count
  bool csv = false;
  std::string rel_out;
  std::string rel_intervals_out;
};

void usage() {
  std::puts(
      "icr_sim — ICR (DSN'03) cache-reliability simulator\n"
      "  --app=NAME            gzip|vpr|gcc|mcf|parser|mesa|vortex|bzip2\n"
      "  --trace=FILE          replay a recorded .icrt trace instead\n"
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
      "                        (open in Perfetto; implies --prof)\n");
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

// Applies --geometry=SIZE/WAYS to the dL1 (no-op when empty); exits 2 on a
// malformed value, throws std::invalid_argument on an invalid geometry.
void apply_geometry(const std::string& geometry, sim::SimConfig& config) {
  if (geometry.empty()) return;
  const std::size_t slash = geometry.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("--geometry expects SIZE/WAYS, e.g. 16K/4");
  }
  const auto size = sim::cli::parse_size(geometry.substr(0, slash));
  const auto ways = sim::cli::parse_u32(geometry.substr(slash + 1));
  if (!size || !ways) sim::cli::bad_value("icr_sim", "--geometry", geometry);
  config.dl1.size_bytes = *size;
  config.dl1.associativity = *ways;
  config.dl1.validate();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (opt.run.parse(arg) ||
        number_flag("icr_sim", arg, "--rcache", opt.rcache) ||
        number_flag("icr_sim", arg, "--ways-disabled", opt.ways_disabled) ||
        number_flag("icr_sim", arg, "--way-mask", opt.way_mask, 0)) {
      continue;
    }
    if (parse_flag(arg, "--app", value)) {
      opt.app = value;
    } else if (parse_flag(arg, "--trace", value)) {
      opt.trace_path = value;
    } else if (parse_flag(arg, "--scheme", value)) {
      opt.scheme = value;
    } else if (parse_flag(arg, "--victim", value)) {
      opt.victim = value;
    } else if (std::strcmp(arg, "--leave-replicas") == 0) {
      opt.leave_replicas = true;
    } else if (std::strcmp(arg, "--write-through") == 0) {
      opt.write_through = true;
    } else if (parse_flag(arg, "--geometry", value)) {
      opt.geometry = value;
    } else if (std::strcmp(arg, "--csv") == 0) {
      opt.csv = true;
    } else if (parse_flag(arg, "--rel-out", value)) {
      opt.rel_out = value;
    } else if (parse_flag(arg, "--rel-intervals-out", value)) {
      opt.rel_intervals_out = value;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else {
      sim::cli::unknown_flag("icr_sim", arg);
    }
  }
  const sim::cli::RunFlags& run = opt.run;

  const std::uint64_t instructions = run.instructions != 0
                                         ? run.instructions
                                         : sim::default_instruction_count();

  core::Scheme scheme = scheme_by_name(opt.scheme)
                            .with_decay_window(run.window)
                            .with_victim_policy(victim_by_name(opt.victim))
                            .with_leave_replicas(opt.leave_replicas);
  if (opt.write_through) scheme = scheme.with_write_through();

  sim::SimConfig config = sim::SimConfig::table1();
  config.fault_model = fault_by_name(run.fault_model);
  config.fault_probability = run.fault_prob;
  config.rcache_entries = opt.rcache;
  try {
    apply_geometry(opt.geometry, config);
    if (opt.ways_disabled != 0 || opt.way_mask != 0) {
      config.dl1_way_disable.count = opt.ways_disabled;
      config.dl1_way_disable.fixed_mask = opt.way_mask;
      config.dl1_way_disable.pattern =
          sim::cli::way_pattern_by_name(run.way_pattern);
      config.dl1_way_disable.seed = run.way_seed;
      config.dl1_way_disable.validate(config.dl1.associativity);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_sim: %s\n", error.what());
    return 2;
  }

  const obs::ObsOptions obsopt = run.obs();
  rel::RelOptions relopt;
  relopt.enabled =
      run.rel || !opt.rel_out.empty() || !opt.rel_intervals_out.empty();
  relopt.probability = run.fault_prob;
  const sim::SamplingOptions sampling = run.sampling();

  if (run.prof) obs::prof::begin_capture();

  // Replay a recorded trace or generate the app's stream: either drives
  // the exact same Simulator wiring, so a replayed trace reproduces its
  // generator-driven run bit for bit (guarded by tier-1 test).
  std::unique_ptr<trace::StreamingTraceSource> replay;
  if (!opt.trace_path.empty()) {
    try {
      sim::check_trace_label(opt.trace_path, opt.trace_path);
      replay = std::make_unique<trace::StreamingTraceSource>(opt.trace_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "icr_sim: %s\n", error.what());
      return 1;
    }
    // Provenance header; stderr under --csv so stdout stays parseable.
    std::fprintf(opt.csv ? stderr : stdout,
                 "replaying %s: ICRT-v%u, %llu record(s), fingerprint "
                 "0x%016llx\n",
                 opt.trace_path.c_str(), replay->info().version,
                 static_cast<unsigned long long>(replay->info().records),
                 static_cast<unsigned long long>(replay->info().fingerprint));
  }
  sim::Simulator simulator =
      replay != nullptr
          ? sim::Simulator(config, scheme, std::move(replay), opt.trace_path)
          : sim::Simulator(config, scheme,
                           trace::profile_for(app_by_name(opt.app)));
  simulator.enable_observability(obsopt);
  simulator.enable_rel(relopt);

  // A bit-identical passthrough when sampling is off.
  const sim::SampledRunResult sampled =
      sim::SamplingController(simulator, sampling).run(instructions);
  const sim::RunResult& result = sampled.estimate;
  const sim::SampleProvenance& provenance = sampled.provenance;
  const obs::CellObservability telemetry = simulator.collect_observability();
  const rel::RelReport rel_report = simulator.collect_rel();

  // End the capture before reporting: the simulation is what we profile,
  // not the table rendering. The table goes to stderr so --csv stdout
  // stays machine-readable.
  if (run.prof) {
    const obs::prof::Profile profile = obs::prof::end_capture();
    std::fputs(obs::prof::format_self_time_table(profile).c_str(), stderr);
    if (!run.prof_out.empty()) {
      sim::write_text_file(run.prof_out, obs::prof::to_chrome_trace(
                                             profile, "icr_sim"));
      std::fprintf(stderr, "wrote host profile to %s\n",
                   run.prof_out.c_str());
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
    if (relopt.enabled) {
      std::fputs(rel::format_report(rel_report).c_str(), stdout);
    }
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
  if (!run.intervals_out.empty()) {
    sim::write_text_file(run.intervals_out,
                         obs::intervals_to_csv(telemetry.intervals, tag));
    std::printf("wrote %zu intervals to %s\n",
                telemetry.intervals.interval_count(),
                run.intervals_out.c_str());
  }
  if (!run.heatmap_out.empty()) {
    sim::write_text_file(run.heatmap_out,
                         obs::occupancy_to_csv(telemetry.intervals, tag));
    std::printf("wrote occupancy heatmap to %s\n", run.heatmap_out.c_str());
  }
  if (!run.trace_out.empty()) {
    std::string ndjson;
    obs::append_ndjson(ndjson, telemetry.events, tag);
    sim::write_text_file(run.trace_out, ndjson);
    std::printf("wrote %zu events to %s (%llu emitted, %llu dropped)\n",
                telemetry.events.size(), run.trace_out.c_str(),
                static_cast<unsigned long long>(telemetry.trace_emitted),
                static_cast<unsigned long long>(telemetry.trace_dropped));
  }

  // Inline interval summary when sampling was on but nobody asked for the
  // raw CSV (and the single-line --csv mode isn't active).
  if (obsopt.stats_interval != 0 && run.intervals_out.empty() && !opt.csv) {
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
