// The repository benchmark (perfbench/README.md): runs one named workload
// through the public simulator API for a fixed host time, checks every
// cell's outputs, and writes the measured metrics to a JSON report.
//
//   icr_perfbench --workload=ilp-gcc|mcf-chase|fault-grid [--seed=N]
//                 [--seconds=S] [--trace=0|1] --digests=FILE
//                 --work-dir=DIR --report=FILE
//   icr_perfbench --workload=NAME --pin    prints the seed-0 digest lines
//
// A run repeats rounds until --seconds have passed. Each round sets the
// workload up from scratch (the modelled caches start cold, as in every
// figure bench), simulates every cell and exports the cells through
// sim/results_io. Metrics are medians over rounds. With --trace=1 the
// rounds alternate between untraced and traced; traced rounds feed the
// layer ladder (perfbench/ladder.h).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/ladder.h"
#include "src/sim/campaign.h"
#include "src/sim/metrics.h"
#include "src/sim/results_io.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using namespace icr;

// Per-cell budgets, sized so that one round takes about half a second on
// one core and a run of 10-20 s holds a few dozen rounds to take medians
// over.
constexpr std::uint64_t kGccInstructions = 200000;
constexpr std::uint64_t kMcfInstructions = 50000;
// The pipeline fetches ahead of commit, so the trace holds more records
// than are replayed: a trace sized exactly would wrap and diverge from the
// generator run whose digest mcf-chase is pinned to.
constexpr std::uint64_t kMcfRecords = kMcfInstructions + kMcfInstructions / 4;
constexpr std::uint64_t kGridInstructions = 40000;
constexpr std::uint32_t kGridTrials = 2;
// Two workers keep the grid's spread low; the four apps have similar CPI,
// so neither worker waits on a long tail cell.
constexpr unsigned kGridThreads = 2;
constexpr double kGridFaultRate = 1e-3;  // per cycle, as in Fig. 14
// Largest accepted gap between replayed and simulated dL1 accesses (the
// replay misses only the loads in flight when a cell stops).
constexpr double kLadderTolerance = 0.005;
// Commit retires up to four instructions a cycle, so a cell may overshoot
// its budget by three.
constexpr std::uint64_t kCommitOvershoot = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

std::uint64_t digest(const sim::RunResult& result) {
  const std::vector<std::uint64_t> counters = sim::counter_vector(result);
  return trace::fnv1a64(reinterpret_cast<const std::uint8_t*>(counters.data()),
                        counters.size() * sizeof(std::uint64_t));
}

std::uint64_t digest(const std::string& text) {
  return trace::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()),
                        text.size());
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// Seed 0 keeps the calibrated profile seeds; any other seed moves every
// cell of the workload to a new stream.
std::uint64_t workload_seed(std::uint64_t calibrated, std::uint64_t seed) {
  return seed == 0 ? calibrated : mix64(calibrated ^ mix64(seed));
}

struct Cell {
  std::string label;  // "<scheme>/<app>" or "<scheme>/<app>/<trial>"
  core::Scheme scheme;
  trace::WorkloadProfile profile;
  sim::SimConfig config;
};

// The outcome of one round, cells in grid order.
struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double sim_s = 0.0;  // cells' wall time
  double export_s = 0.0;
  std::size_t export_bytes = 0;
  std::uint64_t export_digest = 0;  // of the timing-free export
  std::vector<sim::RunResult> results;
  std::vector<bool> threw;
  // Traced rounds only.
  std::vector<double> cell_s;
  std::vector<double> trace_s;
  std::vector<std::uint64_t> pulled;
  std::vector<std::uint64_t> handed_out;
  std::vector<std::uint64_t> memory_accesses;
  double trace_setup_s = 0.0;

  [[nodiscard]] std::uint64_t instructions() const {
    std::uint64_t sum = 0;
    for (const sim::RunResult& r : results) sum += r.instructions;
    return sum;
  }
};

class Workload {
 public:
  Workload(std::string name, std::uint64_t seed, std::string work_dir)
      : name_(std::move(name)), seed_(seed), work_dir_(std::move(work_dir)) {
    if (name_ == "ilp-gcc" || name_ == "mcf-chase") {
      const bool mcf = name_ == "mcf-chase";
      instructions_ = mcf ? kMcfInstructions : kGccInstructions;
      trace::WorkloadProfile profile =
          trace::profile_for(mcf ? trace::App::kMcf : trace::App::kGcc);
      profile.seed = workload_seed(profile.seed, seed_);
      // No replication, serial parity replication, and parallel-compare
      // ECC with the LS trigger: the core and coding work differs per cell.
      for (const core::Scheme& scheme :
           {core::Scheme::BaseP(), core::Scheme::IcrPPS_S(),
            core::Scheme::IcrEccPP_LS()}) {
        cells_.push_back({scheme.name + "/" + profile.name, scheme, profile,
                          sim::SimConfig::table1()});
      }
      if (mcf) trace_path_ = work_dir_ + "/mcf.icrt";
    } else if (name_ == "fault-grid") {
      instructions_ = kGridInstructions;
      threads_ = kGridThreads;
      spec_ = grid_spec();
      // The cells exactly as run_campaign_cell derives them; traced rounds
      // build these themselves, and every traced cell is checked against
      // the campaign's result for it.
      for (std::size_t v = 0; v < spec_.variants.size(); ++v) {
        for (std::size_t a = 0; a < spec_.apps.size(); ++a) {
          for (std::size_t t = 0; t < kGridTrials; ++t) {
            Cell cell{spec_.variants[v].label + "/" +
                          trace::to_string(spec_.apps[a]) + "/" +
                          std::to_string(t),
                      spec_.variants[v].scheme,
                      trace::profile_for(spec_.apps[a]), spec_.config};
            std::uint64_t state =
                sim::derive_cell_seed(spec_.base_seed, v, a, t);
            cell.profile.seed = split_mix64(state);
            cell.config.fault_seed = split_mix64(state);
            cells_.push_back(std::move(cell));
          }
        }
      }
    } else {
      throw std::invalid_argument("unknown workload '" + name_ +
                                  "' (ilp-gcc, mcf-chase, fault-grid)");
    }
  }

  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] bool campaign() const { return threads_ > 1; }
  [[nodiscard]] bool replayed() const { return !trace_path_.empty(); }

  // The source a cell's simulator reads: the recorded trace on mcf-chase,
  // the cell's generator otherwise.
  [[nodiscard]] std::unique_ptr<trace::TraceSource> open_source(
      const Cell& cell) const {
    if (replayed()) {
      return std::make_unique<trace::StreamingTraceSource>(trace_path_);
    }
    return std::make_unique<trace::SyntheticWorkload>(cell.profile);
  }

  Round run_round(bool traced) {
    Round round;
    round.traced = traced;
    const auto setup_start = Clock::now();
    if (traced) {
      if (replayed()) record_trace();
      round.trace_setup_s = seconds_since(setup_start);
    } else {
      setup();
    }
    round.setup_s = seconds_since(setup_start);

    sim::CampaignResult result;
    const auto sim_start = Clock::now();
    if (traced) {
      run_traced(round);
    } else if (campaign()) {
      try {
        result = runner_->run(spec_);
        for (sim::CellResult& cell : result.cells) {
          round.results.push_back(cell.result);
        }
        round.threw.assign(cells_.size(), false);
      } catch (const std::exception& e) {
        note_failure(e.what());
        round.results.assign(cells_.size(), {});
        round.threw.assign(cells_.size(), true);
      }
    } else {
      for (std::unique_ptr<sim::Simulator>& simulator : simulators_) {
        run_cell(round, [&] { return simulator->run(instructions_); });
      }
    }
    round.sim_s = seconds_since(sim_start);
    simulators_.clear();

    if (!campaign() || traced) result = as_campaign(round.results);
    result.meta.wall_seconds = round.sim_s;
    const auto export_start = Clock::now();
    const std::string csv = sim::to_csv(result);
    const std::string json = sim::to_json(result);
    sim::write_text_file(work_dir_ + "/cells.csv", csv);
    sim::write_text_file(work_dir_ + "/cells.json", json);
    round.export_s = seconds_since(export_start);
    round.export_bytes = csv.size() + json.size();
    round.export_digest = digest(csv + sim::to_json(result, false));
    return round;
  }

  // Every cell run from its synthetic generator, one after another on the
  // calling thread: the reference a replayed or multi-threaded run must
  // reproduce.
  [[nodiscard]] sim::CampaignResult reference_run() const {
    if (campaign()) {
      sim::CampaignResult sequential = as_campaign({});
      for (std::size_t v = 0; v < spec_.variants.size(); ++v) {
        for (std::size_t a = 0; a < spec_.apps.size(); ++a) {
          for (std::size_t t = 0; t < kGridTrials; ++t) {
            sequential.cells.push_back(
                sim::run_campaign_cell(spec_, v, a, t, instructions_));
          }
        }
      }
      return sequential;
    }
    std::vector<sim::RunResult> results;
    for (const Cell& cell : cells_) {
      sim::Simulator simulator(cell.config, cell.scheme, cell.profile);
      results.push_back(simulator.run(instructions_));
    }
    return as_campaign(results);
  }

  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  sim::CampaignSpec grid_spec() const {
    sim::CampaignSpec spec;
    for (const core::Scheme& scheme :
         {core::Scheme::BaseP(), core::Scheme::BaseECC(),
          core::Scheme::IcrPPS_LS(), core::Scheme::IcrEccPS_LS()}) {
      spec.variants.emplace_back(scheme.name, scheme);
    }
    spec.apps = {trace::App::kVpr, trace::App::kParser, trace::App::kMesa,
                 trace::App::kBzip2};
    spec.config.fault_model = fault::FaultModel::kRandom;
    spec.config.fault_probability = kGridFaultRate;
    spec.instructions = kGridInstructions;
    spec.trials = kGridTrials;
    spec.derive_seeds = true;
    spec.base_seed = workload_seed(spec.base_seed, seed_);
    return spec;
  }

  void record_trace() const {
    trace::SyntheticWorkload generator(cells_.front().profile);
    trace::record_trace_v2(generator, kMcfRecords, trace_path_);
  }

  // Set-up of an untraced round: records the trace (mcf-chase) and builds
  // the simulators, or builds the campaign spec and runner (fault-grid; the
  // runner hashes the spec inside run(), so that lands in wall_s).
  void setup() {
    if (campaign()) {
      spec_ = grid_spec();
      runner_ = std::make_unique<sim::CampaignRunner>(threads_);
      return;
    }
    if (replayed()) record_trace();
    for (const Cell& cell : cells_) {
      simulators_.push_back(std::make_unique<sim::Simulator>(
          cell.config, cell.scheme, open_source(cell), cell.profile.name));
    }
  }

  template <typename Fn>
  void run_cell(Round& round, Fn&& fn) {
    try {
      round.results.push_back(fn());
      round.threw.push_back(false);
    } catch (const std::exception& e) {
      note_failure(e.what());
      round.results.emplace_back();
      round.threw.push_back(true);
    }
  }

  // A traced round: every cell built here around a TimedSource and run on
  // `threads_` threads (the calling thread plus a pool, as CampaignRunner
  // does), with each cell's wall time recorded.
  void run_traced(Round& round) {
    const std::size_t n = cells_.size();
    round.results.assign(n, {});
    round.threw.assign(n, false);
    round.cell_s.assign(n, 0.0);
    round.trace_s.assign(n, 0.0);
    round.pulled.assign(n, 0);
    round.handed_out.assign(n, 0);
    round.memory_accesses.assign(n, 0);
    std::vector<double> source_setup(n, 0.0);
    std::vector<std::string> errors(n);
    const auto run_index = [&](std::size_t i) {
      const Cell& cell = cells_[i];
      try {
        const auto start = Clock::now();
        auto source = std::make_unique<TimedSource>(open_source(cell));
        source_setup[i] = seconds_since(start);
        TimedSource& timed = *source;
        sim::Simulator simulator(cell.config, cell.scheme, std::move(source),
                                 cell.profile.name);
        round.results[i] = simulator.run(instructions_);
        round.cell_s[i] = seconds_since(start);
        round.trace_s[i] = timed.seconds();
        round.pulled[i] = timed.pulled();
        round.handed_out[i] = timed.handed_out();
        round.memory_accesses[i] = simulator.hierarchy().memory_accesses();
      } catch (const std::exception& e) {
        round.threw[i] = true;
        errors[i] = e.what();
      }
    };
    if (threads_ <= 1) {
      for (std::size_t i = 0; i < n; ++i) run_index(i);
    } else {
      util::ThreadPool pool(threads_ - 1);
      util::parallel_for(pool, n, run_index);
    }
    for (const std::string& error : errors) {
      if (!error.empty()) note_failure(error);
    }
    for (const double s : source_setup) round.trace_setup_s += s;
  }

  sim::CampaignResult as_campaign(
      const std::vector<sim::RunResult>& results) const {
    sim::CampaignResult out;
    out.meta.base_seed = campaign() ? spec_.base_seed : seed_;
    out.meta.config_hash = campaign() ? sim::campaign_config_hash(spec_) : 0;
    out.meta.instructions = instructions_;
    out.meta.trials = campaign() ? kGridTrials : 1;
    out.meta.threads = threads_;
    out.meta.completed_cells = results.size();
    out.cells.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      out.cells[i].result = results[i];
      out.cells[i].cell = grid_coordinates(i);
      out.cells[i].result.scheme =
          cells_[i].label.substr(0, cells_[i].label.find('/'));
    }
    return out;
  }

  sim::CampaignCell grid_coordinates(std::size_t index) const {
    sim::CampaignCell coordinates;
    if (!campaign()) {
      coordinates.variant_idx = static_cast<std::uint32_t>(index);
      return coordinates;
    }
    const std::size_t apps = spec_.apps.size();
    coordinates.variant_idx =
        static_cast<std::uint32_t>(index / (apps * kGridTrials));
    coordinates.app_idx = static_cast<std::uint32_t>((index / kGridTrials) % apps);
    coordinates.trial_idx = static_cast<std::uint32_t>(index % kGridTrials);
    coordinates.seed = sim::derive_cell_seed(
        spec_.base_seed, coordinates.variant_idx, coordinates.app_idx,
        coordinates.trial_idx);
    return coordinates;
  }

  void note_failure(const std::string& what) {
    if (failures_.size() < 8) failures_.push_back(what);
  }

  std::string name_;
  std::uint64_t seed_;
  std::string work_dir_;
  std::uint64_t instructions_ = 0;
  unsigned threads_ = 1;
  std::vector<Cell> cells_;
  std::string trace_path_;
  sim::CampaignSpec spec_;
  std::unique_ptr<sim::CampaignRunner> runner_;
  std::vector<std::unique_ptr<sim::Simulator>> simulators_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Pinned digests: "<workload> <cell label> <hex digest>" lines, '#' comments.
// ---------------------------------------------------------------------------

std::map<std::string, std::uint64_t> read_pins(const std::string& path,
                                               const std::string& workload) {
  std::map<std::string, std::uint64_t> pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, label, value;
    if (!(fields >> name >> label >> value)) {
      throw std::runtime_error("malformed digests line: " + line);
    }
    if (name == workload) pins[label] = std::stoull(value, nullptr, 16);
  }
  return pins;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

Metrics end_to_end(const std::vector<const Round*>& rounds) {
  std::vector<double> mips, wall, setup;
  for (const Round* r : rounds) {
    mips.push_back(static_cast<double>(r->instructions()) / r->sim_s / 1e6);
    wall.push_back(r->sim_s + r->export_s);
    setup.push_back(r->setup_s);
  }
  const std::vector<sim::RunResult>& results = rounds.front()->results;
  const sim::RunResult sum = sim::reconstruct_weighted(
      results, std::vector<double>(results.size(), 1.0));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"sim_mips", median(mips), "MIPS"},
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"sim_cycles", static_cast<double>(sum.cycles), "count"},
      {"replication_ability", sum.dl1.replication_ability(), "frac"},
      {"unrecoverable_loads", static_cast<double>(sum.dl1.unrecoverable_loads),
       "count"},
  };
}

struct Ladder {
  Metrics metrics;
  double access_err = 0.0;
  double cpu_s = 0.0;
  double core_self_s = 0.0;
};

// The layer ladder of one traced round. Host times of the core, mem,
// coding and fault rungs are their replayed per-call costs times the
// simulated call counts; cpu is the remainder of the cells' host time.
Ladder layer_ladder(const Workload& workload, const Round& round,
                    const std::vector<ReplayCost>& costs) {
  const std::vector<Cell>& cells = workload.cells();
  double sim_s = 0.0, trace_s = 0.0, core_s = 0.0, mem_s = 0.0,
         coding_s = 0.0, fault_s = 0.0;
  std::uint64_t pulled = 0, handed = 0, memory_accesses = 0;
  ReplayCost all;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::RunResult& r = round.results[i];
    const ReplayCost& c = costs[i];
    sim_s += round.cell_s[i];
    trace_s += round.trace_s[i];
    pulled += round.pulled[i];
    handed += round.handed_out[i];
    memory_accesses += round.memory_accesses[i];
    core_s += ratio(c.load_s, c.loads) * r.dl1.loads +
              ratio(c.store_s, c.stores) * r.dl1.stores;
    mem_s += ratio(c.fetch_s, c.fetches) * r.dl1.misses();
    coding_s += ratio(c.encode_s + c.decode_s, 2.0 * c.coding_ops) *
                    r.dl1.ecc_computations +
                ratio(c.parity_s, c.coding_ops) * r.dl1.parity_computations;
    if (cells[i].config.fault_probability > 0.0) {
      fault_s += ratio(c.tick_s, c.ticks) * r.cycles;
    }
    all += c;
  }
  // Counter-wise sum of the cells (weights of 1 make the reconstruction a
  // plain sum; the counts stay far below 2^53, so it is exact).
  const sim::RunResult sum = sim::reconstruct_weighted(
      round.results, std::vector<double>(round.results.size(), 1.0));
  const core::IcrStats& dl1 = sum.dl1;
  const std::uint64_t recovered =
      dl1.errors_corrected_by_replica + dl1.errors_corrected_by_ecc +
      dl1.errors_corrected_by_rcache + dl1.errors_refetched_from_l2;
  const std::uint64_t observed = sum.faults.observed();
  const std::uint64_t fault_recovered =
      sum.faults.corrected + sum.faults.replica_recovered;
  const double core_self_s = core_s - mem_s - coding_s;
  const double cpu_s = sim_s - trace_s - core_s - fault_s;
  const double replayed = static_cast<double>(all.loads + all.stores);
  const double simulated = static_cast<double>(
      dl1.accesses() + sum.pipeline.forwarded_loads);

  std::vector<double> cell_s = round.cell_s;
  const double ns = 1e9;
  Ladder ladder;
  ladder.access_err = ratio(std::fabs(replayed - simulated), replayed);
  ladder.cpu_s = cpu_s;
  ladder.core_self_s = core_self_s;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  ladder.metrics = {
      {"trace.records", count(handed), "count"},
      {"trace.ns_per_record", ratio(trace_s, pulled) * ns, "ns"},
      {"trace.share", ratio(trace_s, sim_s), "frac"},
      {"trace.setup_s", round.trace_setup_s, "s"},
      {"cpu.cycles", count(sum.cycles), "count"},
      {"cpu.committed", count(sum.instructions), "count"},
      {"cpu.ns_per_inst", ratio(cpu_s, sum.instructions) * ns, "ns"},
      {"cpu.ns_per_cycle", ratio(cpu_s, sum.cycles) * ns, "ns"},
      {"cpu.share", ratio(cpu_s, sim_s), "frac"},
      {"cpu.fetch_stall_cycles", count(sum.pipeline.fetch_stall_cycles), "count"},
      {"cpu.mispredicts", count(sum.pipeline.mispredicted_branches), "count"},
      {"cpu.forwarded_loads", count(sum.pipeline.forwarded_loads), "count"},
      {"core.loads", count(dl1.loads), "count"},
      {"core.stores", count(dl1.stores), "count"},
      {"core.ns_per_load", ratio(all.load_s, all.loads) * ns, "ns"},
      {"core.ns_per_store", ratio(all.store_s, all.stores) * ns, "ns"},
      {"core.share", ratio(core_self_s, sim_s), "frac"},
      {"core.miss_rate", dl1.miss_rate(), "frac"},
      {"core.loads_with_replica", count(dl1.loads_with_replica), "count"},
      {"core.site_searches", count(dl1.site_searches), "count"},
      {"core.site_search_hit",
       1.0 - ratio(count(dl1.site_search_failures),
                   count(dl1.site_searches)),
       "frac"},
      {"core.replica_updates", count(dl1.replica_updates), "count"},
      {"core.recovered", count(recovered), "count"},
      {"core.unrecoverable", count(dl1.unrecoverable_loads), "count"},
      {"coding.secded_ops", count(dl1.ecc_computations), "count"},
      {"coding.parity_ops", count(dl1.parity_computations), "count"},
      {"coding.ns_per_encode", ratio(all.encode_s, all.coding_ops) * ns, "ns"},
      {"coding.ns_per_decode", ratio(all.decode_s, all.coding_ops) * ns, "ns"},
      {"coding.ns_per_parity", ratio(all.parity_s, all.coding_ops) * ns, "ns"},
      {"coding.share", ratio(coding_s, sim_s), "frac"},
      {"mem.l2_accesses", count(sum.l2.accesses), "count"},
      {"mem.l2_miss_rate", sum.l2.miss_rate(), "frac"},
      {"mem.memory_accesses", count(memory_accesses), "count"},
      {"mem.l1i_misses", count(sum.l1i.misses), "count"},
      {"mem.ns_per_fetch", ratio(all.fetch_s, all.fetches) * ns, "ns"},
      {"mem.share", ratio(mem_s, sim_s), "frac"},
      {"fault.injections", count(sum.faults.injections), "count"},
      {"fault.observed", count(observed), "count"},
      {"fault.silent", count(sum.faults.silent), "count"},
      {"fault.recovered_frac", ratio(count(fault_recovered), count(observed)),
       "frac"},
      {"fault.ns_per_tick", ratio(all.tick_s, all.ticks) * ns, "ns"},
      {"fault.share", ratio(fault_s, sim_s), "frac"},
      {"sim.cells", count(cells.size()), "count"},
      {"sim.cell_s_p50", median(cell_s), "s"},
      {"sim.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()), "s"},
      {"sim.pool_busy_frac", ratio(sim_s, workload.threads() * round.sim_s),
       "frac"},
      {"sim.export_ms", round.export_s * 1e3, "ms"},
      {"sim.export_bytes", count(round.export_bytes), "bytes"},
      {"sim.ladder_access_err", ladder.access_err, "frac"},
  };
  return ladder;
}

// Per-name medians over several rounds' metric lists (same names, same
// order in each).
Metrics median_metrics(const std::vector<Metrics>& per_round) {
  Metrics out = per_round.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const Metrics& metrics : per_round) values.push_back(metrics[m].value);
    out[m].value = median(values);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string json_string(const std::string& text) {
  return "\"" + util::json_escape(text) + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool pin = false;
  std::string digests;
  std::string work_dir = ".";
  std::string report;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "icr_perfbench: %s\nusage: icr_perfbench --workload=NAME "
               "[--seed=N] [--seconds=S] [--trace=0|1] --digests=FILE "
               "--work-dir=DIR --report=FILE | --workload=NAME --pin\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (key == "--pin") {
        options.pin = true;
      } else if (key == "--digests") {
        options.digests = value;
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else if (key == "--report") {
        options.report = value;
      } else {
        usage("unknown flag '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value in '" + arg + "'");
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!options.pin && (options.digests.empty() || options.report.empty())) {
    usage("--digests and --report are required");
  }
  return options;
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Options& options) {
  Workload workload(options.workload, options.seed, options.work_dir);
  const std::vector<Cell>& cells = workload.cells();

  if (options.pin) {
    // Seed 0 only, and always from the generators: mcf-chase's replay is
    // then checked against the generator run at no extra cost.
    if (options.seed != 0) usage("--pin takes the default seed only");
    const sim::CampaignResult reference = workload.reference_run();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s %s %s\n", options.workload.c_str(),
                  cells[i].label.c_str(),
                  hex(digest(reference.cells[i].result)).c_str());
    }
    return 0;
  }

  std::vector<Round> rounds;
  std::vector<Metrics> ladders;
  std::vector<std::string> ladder_problems;
  std::uint64_t ladder_checks = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  do {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    rounds.push_back(workload.run_round(traced));
    const Round& round = rounds.back();
    if (!traced ||
        std::find(round.threw.begin(), round.threw.end(), true) !=
            round.threw.end()) {
      continue;
    }
    std::vector<ReplayCost> costs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const sim::RunResult& r = round.results[i];
      const std::vector<MemOp> ops = capture_mem_ops(
          *workload.open_source(cells[i]), r.instructions, r.cycles);
      costs.push_back(replay_cell(cells[i].config, cells[i].scheme, ops,
                                  cells[i].config.fault_seed));
    }
    const Ladder ladder = layer_ladder(workload, round, costs);
    ++ladder_checks;
    if (ladder.access_err > kLadderTolerance) {
      ladder_problems.push_back("replayed dL1 accesses differ from the "
                                "simulated ones by " +
                                std::to_string(ladder.access_err));
    } else if (ladder.cpu_s < 0.0 || ladder.core_self_s < 0.0) {
      ladder_problems.push_back("a ladder rung's host time went negative");
    }
    ladders.push_back(ladder.metrics);
  } while (Clock::now() < deadline || (options.trace && ladders.empty() &&
                                       rounds.size() < 2));

  // Output check: every cell against its reference digest. At seed 0 that
  // is the pin; at other seeds a generator run (mcf-chase), the sequential
  // campaign (fault-grid), or the first round (ilp-gcc), so every round
  // must repeat it. fault-grid also needs its export bytes to match the
  // sequential campaign's: thread-count identity.
  const bool pinned = options.seed == 0;
  sim::CampaignResult sequential;
  std::uint64_t reference_export = 0;
  if (workload.campaign() || (!pinned && workload.replayed())) {
    sequential = workload.reference_run();
    reference_export =
        digest(sim::to_csv(sequential) + sim::to_json(sequential, false));
  }
  std::vector<std::uint64_t> reference;
  if (pinned) {
    const std::map<std::string, std::uint64_t> pins =
        read_pins(options.digests, options.workload);
    for (const Cell& cell : cells) {
      const auto it = pins.find(cell.label);
      reference.push_back(it == pins.end() ? 0 : it->second);
    }
  } else if (!sequential.cells.empty()) {
    for (const sim::CellResult& cell : sequential.cells) {
      reference.push_back(digest(cell.result));
    }
  } else {
    for (const sim::RunResult& r : rounds.front().results) {
      reference.push_back(digest(r));
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems = workload.failures();
  for (const Round& round : rounds) {
    const bool export_ok =
        !workload.campaign() || round.export_digest == reference_export;
    if (!export_ok) {
      problems.push_back("2-thread export differs from the sequential one");
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ++attempted;
      const sim::RunResult& r = round.results[i];
      bool ok = !round.threw[i] && export_ok;
      ok = ok && digest(r) == reference[i];
      ok = ok && r.instructions >= workload.instructions() &&
           r.instructions <= workload.instructions() + kCommitOvershoot;
      if (cells[i].config.fault_probability == 0.0) {
        ok = ok && r.pipeline.silent_corrupt_loads == 0 &&
             r.pipeline.unrecoverable_loads == 0;
      }
      if (!ok) {
        ++failed;
        if (problems.size() < 16 && !round.threw[i]) {
          problems.push_back("cell " + cells[i].label + " digest " +
                             hex(digest(r)) + ", expected " +
                             hex(reference[i]));
        }
      }
    }
  }
  attempted += ladder_checks;
  failed += ladder_problems.size();
  problems.insert(problems.end(), ladder_problems.begin(), ladder_problems.end());

  std::vector<const Round*> untraced, traced;
  for (const Round& round : rounds) {
    (round.traced ? traced : untraced).push_back(&round);
  }
  Metrics metrics = end_to_end(untraced);
  metrics.push_back({"failed_frac", ratio(failed, attempted), "frac"});
  print_metrics("end-to-end (medians over untraced rounds)", metrics);
  if (!ladders.empty()) {
    Metrics layers = median_metrics(ladders);
    std::vector<double> untraced_s, traced_s;
    for (const Round* r : untraced) untraced_s.push_back(r->sim_s);
    for (const Round* r : traced) traced_s.push_back(r->sim_s);
    layers.push_back({"sim.trace_overhead",
                      ratio(median(traced_s), median(untraced_s)) - 1.0,
                      "frac"});
    print_metrics("per-layer (medians over traced rounds; cpu is the "
                  "remainder the other rungs leave)",
                  layers);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  std::printf("rounds: %zu untraced, %zu traced; checks (cells and ladders) "
              "attempted %llu, failed %llu; reference: %s\n",
              untraced.size(), traced.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              pinned ? "pinned seed-0 digests" : "unpinned seed");
  if (options.trace) {
    std::printf("ladder check: %s (tolerance %.3g on replayed dL1 accesses)\n",
                ladder_problems.empty() ? "pass" : "FAILED", kLadderTolerance);
  }
  for (const std::string& p : problems) std::printf("problem: %s\n", p.c_str());

  std::string json = "{\n  \"workload\": " + json_string(options.workload) +
                     ",\n  \"seed\": " + std::to_string(options.seed) +
                     ",\n  \"trace\": " + (options.trace ? "1" : "0") +
                     ",\n  \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                     ",\n  \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ",\n  \"attempted\": " + std::to_string(attempted) +
                     ",\n  \"failed\": " + std::to_string(failed) +
                     ",\n  \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_string(problems[i]);
  }
  json += "],\n  \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    json += std::string(i == 0 ? "\n    " : ",\n    ") +
            "{\"traced\": " + (r.traced ? "true" : "false") +
            ", \"setup_s\": " + json_number(r.setup_s) +
            ", \"sim_s\": " + json_number(r.sim_s) +
            ", \"export_s\": " + json_number(r.export_s) + "}";
  }
  json += "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\n    " : ",\n    ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "\n  }\n}\n";
  sim::write_text_file(options.report, json);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icr_perfbench: %s\n", e.what());
    return 1;
  }
}
