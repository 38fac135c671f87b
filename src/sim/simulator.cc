#include "src/sim/simulator.h"

#include <algorithm>

#include "src/obs/prof.h"

namespace icr::sim {

Simulator::Simulator(SimConfig config, core::Scheme scheme,
                     trace::WorkloadProfile profile)
    : Simulator(config, std::move(scheme),
                std::make_unique<trace::SyntheticWorkload>(profile),
                profile.name) {}

Simulator::Simulator(SimConfig config, core::Scheme scheme,
                     std::unique_ptr<trace::TraceSource> source,
                     std::string app_name)
    : config_(config),
      scheme_(std::move(scheme)),
      source_(std::move(source)),
      app_name_(std::move(app_name)) {
  hierarchy_ = std::make_unique<mem::MemoryHierarchy>(config_.hierarchy);
  dl1_ = std::make_unique<core::IcrCache>(config_.dl1, scheme_, *hierarchy_,
                                          config_.dl1_way_disable);
  if (config_.rcache_entries > 0) {
    rcache_ = std::make_unique<baselines::RCache>(config_.rcache_entries);
    dl1_->attach_rcache(rcache_.get());
  }
  if (config_.fault_probability > 0.0) {
    injector_ = std::make_unique<fault::FaultInjector>(
        config_.fault_model, config_.fault_probability,
        Rng(config_.fault_seed));
  }
  pipeline_ = std::make_unique<cpu::Pipeline>(*source_, *dl1_, *hierarchy_,
                                              injector_.get());
}

void Simulator::enable_observability(const obs::ObsOptions& options) {
  if (!options.any() || obs_ != nullptr) return;
  obs_ = std::make_unique<obs::Observability>();
  if (options.trace_categories != 0) {
    obs_->trace = std::make_unique<obs::EventTrace>(options.trace_categories);
  }
  // Registration order is the interval CSV's column order.
  obs::StatRegistry& reg = obs_->registry;
  dl1_->attach_observability(obs_->trace.get());
  reg.register_counters("dl1", dl1_->stats());
  reg.register_counters("dbp", dl1_->dead_block_predictor().stats());
  if (injector_ != nullptr) {
    injector_->attach_observability(obs_->trace.get());
    reg.register_counters("fault", injector_->stats());
  }
  reg.register_counters("pipeline", pipeline_->stats());
  reg.register_counters("l1i", hierarchy_->l1i().stats());
  reg.register_counters("l2", hierarchy_->l2().stats());
  reg.register_counters("branch", pipeline_->branch_predictor().stats());
  if (rcache_ != nullptr) reg.register_counters("rcache", rcache_->stats());
  reg.register_gauge("dl1.resident_replicas",
                     [this] { return dl1_->resident_replicas(); });
  if (options.stats_interval != 0) {
    obs_->sampler =
        std::make_unique<obs::IntervalSampler>(reg, options.stats_interval);
    obs_->sampler->set_occupancy_probe(
        [this] { return dl1_->replica_occupancy(); });
    obs_->sampler->record_baseline(pipeline_->stats().committed,
                                   pipeline_->cycle());
  }
}

void Simulator::enable_rel(const rel::RelOptions& options) {
  if (!options.enabled || rel_ != nullptr) return;
  rel::RelTracker::Config config;
  config.words_per_line = config_.dl1.words_per_line();
  config.scheme_parity = scheme_.protection == core::Protection::kParity;
  config.write_through =
      scheme_.write_policy == core::WritePolicy::kWriteThrough;
  // The analytical outcome split models the uniform single-bit strike model
  // only; the exposure integrals themselves are model-independent.
  config.model_supported = config_.fault_probability == 0.0 ||
                           config_.fault_model == fault::FaultModel::kRandom;
  config.probability = options.probability > 0.0 ? options.probability
                                                 : config_.fault_probability;
  config.clock_ghz = options.clock_ghz;
  rel_ = std::make_unique<rel::RelTracker>(config);
  dl1_->attach_rel(rel_.get());
}

rel::RelReport Simulator::collect_rel() const {
  if (rel_ == nullptr) return {};
  return rel_->report(pipeline_->cycle());
}

RunResult Simulator::run(std::uint64_t instructions) {
  ICR_PROF_ZONE("Simulator::run");
  advance(instructions, /*detailed=*/true);
  return result();
}

void Simulator::fast_forward(std::uint64_t instructions) {
  ICR_PROF_ZONE("Simulator::fast_forward");
  // Keeps the telemetry cadence through fast-forwarded regions; boundary
  // duplicates collapse inside the sampler.
  advance(instructions, /*detailed=*/false);
}

void Simulator::advance(std::uint64_t instructions, bool detailed) {
  const auto call = [&](std::uint64_t n) {
    detailed ? (void)pipeline_->run(n) : (void)pipeline_->fast_forward(n);
  };
  if (obs_ == nullptr || obs_->sampler == nullptr) {
    call(instructions);
    return;
  }
  // Advance in sampling-interval chunks. Targets are absolute so the commit
  // stage's overshoot (up to commit_width-1 per chunk) never accumulates:
  // the chunked execution commits the same instruction stream, cycle for
  // cycle, as a single uninterrupted call.
  const std::uint64_t interval = obs_->sampler->interval_instructions();
  const std::uint64_t target = pipeline_->stats().committed + instructions;
  while (pipeline_->stats().committed < target) {
    const std::uint64_t next =
        std::min(pipeline_->stats().committed + interval, target);
    call(next - pipeline_->stats().committed);
    obs_->sampler->sample(pipeline_->stats().committed, pipeline_->cycle());
  }
}

obs::CellObservability Simulator::collect_observability() const {
  obs::CellObservability cell;
  if (obs_ == nullptr) return cell;
  if (obs_->sampler != nullptr) cell.intervals = obs_->sampler->series();
  if (obs_->trace != nullptr) {
    cell.events = obs_->trace->events();
    cell.trace_emitted = obs_->trace->emitted();
    cell.trace_dropped = obs_->trace->dropped();
  }
  return cell;
}

RunResult Simulator::result() const {
  RunResult r;
  r.scheme = scheme_.name;
  r.app = app_name_;
  r.instructions = pipeline_->stats().committed;
  r.cycles = pipeline_->stats().cycles;
  r.dl1 = dl1_->stats();
  r.l1i = hierarchy_->l1i().stats();
  r.l2 = hierarchy_->l2().stats();
  r.pipeline = pipeline_->stats();
  r.branch = pipeline_->branch_predictor().stats();
  if (injector_ != nullptr) r.faults = injector_->stats();
  if (rcache_ != nullptr) r.rcache = rcache_->stats();

  // Paper energy metric: dynamic energy of dL1 + L2 data accesses (§4.1).
  energy::EnergyEvents& ev = r.energy_events;
  ev.l1_reads = r.dl1.l1_read_accesses;
  ev.l1_writes = r.dl1.l1_write_accesses;
  ev.l2_reads = hierarchy_->l2_read_accesses() - hierarchy_->l2_ifetch_reads();
  ev.l2_writes = hierarchy_->l2_write_accesses();
  if (const mem::WriteBuffer* wb = dl1_->write_buffer()) {
    ev.l2_writes += wb->drained_writes() + wb->occupancy();
  }
  ev.parity_computations = r.dl1.parity_computations;
  ev.ecc_computations = r.dl1.ecc_computations;
  r.energy = energy::EnergyModel(config_.energy).evaluate(ev);
  return r;
}

}  // namespace icr::sim
