#include "src/sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "src/obs/prof.h"
#include "src/trace/trace_v2.h"
#include "src/obs/throughput.h"
#include "src/sim/cli.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace icr::sim {
namespace {

// Folds `value` into a running SplitMix64 hash chain.
void hash_fold(std::uint64_t& state, std::uint64_t value) noexcept {
  state = mix64(state ^ mix64(value));
}

void hash_fold(std::uint64_t& state, const std::string& text) noexcept {
  hash_fold(state, text.size());
  for (const char c : text) {
    hash_fold(state, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
}

void hash_fold_config(std::uint64_t& state, const SimConfig& config) noexcept {
  hash_fold(state, static_cast<std::uint64_t>(config.fault_model));
  // Bit pattern, not value: hashing doubles through the representation
  // keeps the fold exact for every probability.
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof config.fault_probability);
  __builtin_memcpy(&bits, &config.fault_probability, sizeof bits);
  hash_fold(state, bits);
  hash_fold(state, config.fault_seed);
  hash_fold(state, config.rcache_entries);
  hash_fold(state, config.dl1.size_bytes);
  hash_fold(state, config.dl1.associativity);
  hash_fold(state, config.dl1.line_bytes);
  if (config.dl1_way_disable.enabled()) {
    // Way-disabling changes the numbers, so the full draw configuration
    // fingerprints — but only when enabled, keeping hashes of undegraded
    // configs stable across versions.
    hash_fold(state, 0xD15AB1EDULL);  // domain separator
    hash_fold(state, config.dl1_way_disable.count);
    hash_fold(state, config.dl1_way_disable.fixed_mask);
    hash_fold(state,
              static_cast<std::uint64_t>(config.dl1_way_disable.pattern));
    hash_fold(state, config.dl1_way_disable.seed);
  }
}

// Thread-safe campaign progress reporter. Workers call note() after each
// finished cell; the completion counter is lock-free, and only the (rate
// limited) printing takes a mutex.
class ProgressReporter {
 public:
  // `instructions_per_cell` feeds the simulated-MIPS readout; 0 hides it.
  ProgressReporter(const ProgressOptions& options, std::size_t total,
                   std::uint64_t instructions_per_cell)
      : options_(options),
        total_(total),
        instructions_per_cell_(instructions_per_cell),
        start_(std::chrono::steady_clock::now()),
        last_print_(start_) {}

  std::size_t note() {
    const std::size_t done = completed_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.live_cells_done != nullptr) {
      options_.live_cells_done->store(done, std::memory_order_relaxed);
    }
    if (!options_.enabled) return done;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::chrono::duration<double> since_print = now - last_print_;
    const bool final_cell = done == total_;
    if (since_print.count() < options_.min_interval_seconds &&
        !(final_cell && printed_)) {
      return done;
    }
    const std::chrono::duration<double> elapsed = now - start_;
    // Shared zero-guarded arithmetic (src/obs/throughput.h): before any
    // cell completes (or when the clock has not advanced) there is no rate
    // to divide by, and the ETA prints as "ETA --" instead of a bogus
    // number.
    const obs::Throughput t =
        obs::estimate_throughput(done, total_, elapsed.count());
    const double mips =
        obs::simulated_mips(done, instructions_per_cell_, elapsed.count());
    std::fprintf(stderr,
                 "campaign: %zu/%zu cells (%.1f%%)  %.2f cells/s  "
                 "%.1f MIPS  %s\n",
                 done, total_, t.percent, t.rate, mips,
                 obs::format_eta(t).c_str());
    last_print_ = now;
    printed_ = true;
    return done;
  }

  [[nodiscard]] std::size_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  ProgressOptions options_;
  std::size_t total_;
  std::uint64_t instructions_per_cell_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_print_;
  std::atomic<std::size_t> completed_{0};
  std::mutex mutex_;
  bool printed_ = false;
};

std::atomic<bool> g_default_progress_enabled{false};

// The part of a trace path that a campaign cell label carries.
std::string trace_basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::size_t CampaignSpec::app_axis() const {
  return trace.enabled() ? trace_shard_count(*this) : apps.size();
}

void check_trace_label(const std::string& path, const std::string& label) {
  if (label.find_first_of(",\n\r") != std::string::npos) {
    throw std::runtime_error(
        "trace file '" + path +
        "': the name becomes a CSV cell label and must not contain ',', "
        "'\\n' or '\\r'; rename or copy the file");
  }
}

void resolve_trace_campaign(CampaignSpec& spec) {
  if (!spec.trace.enabled()) return;
  check_trace_label(spec.trace.path, trace_basename(spec.trace.path));
  const trace::TraceInfo info = trace::probe_trace(spec.trace.path);
  if (info.records == 0) {
    throw std::runtime_error("trace campaign: " + spec.trace.path +
                             " is an empty trace");
  }
  spec.trace.fingerprint = info.fingerprint;
  spec.trace.records = info.records;
}

std::string geometry_label_suffix(std::uint32_t size_bytes,
                                  std::uint32_t assoc,
                                  std::uint32_t ways_disabled) {
  const std::string size = size_bytes % 1024 == 0
                               ? std::to_string(size_bytes / 1024) + "K"
                               : std::to_string(size_bytes);
  return "@" + size + "/" + std::to_string(assoc) + "w-d" +
         std::to_string(ways_disabled);
}

void expand_geometry_sweep(CampaignSpec& spec) {
  if (!spec.geometry.enabled()) return;
  if (!spec.geometry.base_schemes.empty()) {
    throw std::invalid_argument(
        "expand_geometry_sweep: spec already expanded (base_schemes set)");
  }
  GeometrySweep& sweep = spec.geometry;
  // Absent axes sweep the single value the spec already carries.
  std::vector<std::uint32_t> sizes = sweep.sizes;
  std::vector<std::uint32_t> assocs = sweep.assocs;
  std::vector<std::uint32_t> kvals = sweep.ways_disabled;
  if (sizes.empty()) sizes.push_back(spec.config.dl1.size_bytes);
  if (assocs.empty()) assocs.push_back(spec.config.dl1.associativity);
  if (kvals.empty()) kvals.push_back(0);

  std::vector<SchemeVariant> expanded;
  expanded.reserve(spec.variants.size() * sizes.size() * assocs.size() *
                   kvals.size());
  for (const SchemeVariant& base : spec.variants) {
    sweep.base_schemes.push_back(base.label);
    for (const std::uint32_t size : sizes) {
      for (const std::uint32_t assoc : assocs) {
        for (const std::uint32_t k : kvals) {
          // Infeasible grid cells (a 2-way set cannot lose 2 ways) are
          // skipped, not errors: a rectangular sizes x assocs x k request
          // naturally contains them. The skip is deterministic, so
          // spec_from_manifest's re-expansion reproduces the same grid.
          if (k >= assoc) continue;
          SchemeVariant v = base;
          SimConfig config = base.config ? *base.config : spec.config;
          config.dl1.size_bytes = size;
          config.dl1.associativity = assoc;
          config.dl1.validate();
          config.dl1_way_disable = mem::WayDisableConfig{};
          if (k != 0) {
            config.dl1_way_disable.count = k;
            config.dl1_way_disable.pattern = sweep.pattern;
            config.dl1_way_disable.seed = sweep.way_seed;
          }
          config.dl1_way_disable.validate(assoc);
          v.label = base.label + geometry_label_suffix(size, assoc, k);
          v.config = config;
          expanded.push_back(std::move(v));
        }
      }
    }
  }
  spec.variants = std::move(expanded);
}

std::uint64_t resolved_instruction_count(const CampaignSpec& spec) {
  if (spec.instructions != 0) return spec.instructions;
  if (spec.trace.enabled()) {
    if (spec.trace.records == 0) {
      throw std::runtime_error(
          "trace campaign: record count unknown; call "
          "resolve_trace_campaign() before expanding the grid");
    }
    return spec.trace.records;
  }
  return default_instruction_count();
}

namespace {
// Interval width: the requested shard size clamped to the budget; 0 means
// one shard covering everything.
std::uint64_t trace_shard_width(const CampaignSpec& spec,
                                std::uint64_t total) {
  return spec.trace.shard_instructions == 0
             ? total
             : std::min(spec.trace.shard_instructions, total);
}
}  // namespace

std::size_t trace_shard_count(const CampaignSpec& spec) {
  const std::uint64_t total = resolved_instruction_count(spec);
  const std::uint64_t width = trace_shard_width(spec, total);
  return static_cast<std::size_t>((total + width - 1) / width);
}

TraceShard trace_shard(const CampaignSpec& spec, std::size_t shard_idx) {
  const std::uint64_t total = resolved_instruction_count(spec);
  const std::uint64_t width = trace_shard_width(spec, total);
  TraceShard shard;
  shard.begin = width * shard_idx;
  shard.instructions = std::min(width, total - shard.begin);
  return shard;
}

std::string trace_shard_label(const CampaignSpec& spec,
                              std::size_t shard_idx) {
  const TraceShard shard = trace_shard(spec, shard_idx);
  return trace_basename(spec.trace.path) + "@" + std::to_string(shard.begin) +
         "+" + std::to_string(shard.instructions);
}

CellResult run_campaign_cell(const CampaignSpec& spec, std::size_t variant_idx,
                             std::size_t app_idx, std::size_t trial_idx,
                             std::uint64_t instructions) {
  const SchemeVariant& variant = spec.variants[variant_idx];
  const bool traced = spec.trace.enabled();
  const std::string cell_label =
      traced ? trace_shard_label(spec, app_idx)
             : std::string(trace::to_string(spec.apps[app_idx]));
  ICR_PROF_ZONE_LABELED("Campaign::cell",
                        variant.label + "/" + cell_label + "/trial " +
                            std::to_string(trial_idx));

  SimConfig config = variant.config ? *variant.config : spec.config;
  std::uint64_t budget = instructions;

  CellResult cell;
  cell.cell.variant_idx = static_cast<std::uint32_t>(variant_idx);
  cell.cell.app_idx = static_cast<std::uint32_t>(app_idx);
  cell.cell.trial_idx = static_cast<std::uint32_t>(trial_idx);
  if (spec.geometry.enabled()) {
    cell.geometry.present = true;
    cell.geometry.dl1_size_bytes = config.dl1.size_bytes;
    cell.geometry.dl1_assoc = config.dl1.associativity;
    const mem::WayDisableConfig& wd = config.dl1_way_disable;
    cell.geometry.ways_disabled =
        wd.fixed_mask != 0
            ? static_cast<std::uint32_t>(std::popcount(wd.fixed_mask))
            : wd.count;
  }

  std::uint64_t workload_seed = 0;
  if (spec.derive_seeds) {
    const std::uint64_t seed =
        derive_cell_seed(spec.base_seed, variant_idx, app_idx, trial_idx);
    cell.cell.seed = seed;
    // Two decorrelated sub-streams: one for the synthetic workload, one
    // for fault injection, so fault timing never aliases address streams.
    // Trace cells have no generator; they discard the workload stream but
    // still consume it, keeping fault seeds aligned with synthetic cells
    // at the same coordinates.
    std::uint64_t state = seed;
    workload_seed = split_mix64(state);
    config.fault_seed = split_mix64(state);
  }

  Simulator simulator = [&]() -> Simulator {
    if (traced) {
      auto source =
          std::make_unique<trace::StreamingTraceSource>(spec.trace.path);
      if (spec.trace.fingerprint != 0 &&
          source->info().fingerprint != spec.trace.fingerprint) {
        throw std::runtime_error(
            "trace campaign: " + spec.trace.path +
            " does not match the campaign's trace fingerprint (the file "
            "changed since the campaign was planned)");
      }
      const TraceShard shard = trace_shard(spec, app_idx);
      budget = shard.instructions;
      source->seek_to(shard.begin);
      return Simulator(config, variant.scheme, std::move(source), cell_label);
    }
    trace::WorkloadProfile profile = trace::profile_for(spec.apps[app_idx]);
    if (spec.derive_seeds) profile.seed = workload_seed;
    return Simulator(config, variant.scheme, std::move(profile));
  }();
  if (spec.obs.any()) simulator.enable_observability(spec.obs);
  if (spec.rel.any()) simulator.enable_rel(spec.rel);
  if (spec.sampling.enabled()) {
    SamplingOptions sampling = spec.sampling;
    if (sampling.mode == SampleMode::kRandom) {
      // Per-cell placement stream, stateless like the workload/fault seeds
      // above, so sampled campaigns stay thread-count independent.
      sampling.seed = derive_cell_seed(spec.base_seed ^ mix64(sampling.seed),
                                       variant_idx, app_idx, trial_idx);
    }
    SampledRunResult sampled =
        SamplingController(simulator, sampling).run(budget);
    cell.result = std::move(sampled.estimate);
    cell.sampling = sampled.provenance;
  } else {
    cell.result = simulator.run(budget);
  }
  cell.result.scheme = variant.label;
  if (spec.obs.any()) {
    cell.obs = std::make_unique<obs::CellObservability>(
        simulator.collect_observability());
  }
  if (spec.rel.any()) {
    cell.rel = std::make_unique<rel::RelReport>(simulator.collect_rel());
  }
  return cell;
}

void CampaignRunner::set_default_progress_enabled(bool enabled) noexcept {
  g_default_progress_enabled.store(enabled, std::memory_order_relaxed);
}

bool CampaignRunner::default_progress_enabled() noexcept {
  return g_default_progress_enabled.load(std::memory_order_relaxed);
}

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::size_t variant_idx, std::size_t app_idx,
                               std::size_t trial_idx) noexcept {
  // Chained SplitMix64: each coordinate perturbs the generator state, so
  // (1,0,0) and (0,1,0) land in unrelated regions of the stream.
  std::uint64_t state = base_seed;
  std::uint64_t seed = split_mix64(state);
  state ^= mix64(0xA11CE5ULL + variant_idx);
  seed ^= split_mix64(state);
  state ^= mix64(0xB0B5ULL + (static_cast<std::uint64_t>(app_idx) << 20));
  seed ^= split_mix64(state);
  state ^= mix64(0xCAFE5ULL + (static_cast<std::uint64_t>(trial_idx) << 40));
  seed ^= split_mix64(state);
  return seed;
}

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("ICR_SIM_THREADS")) {
    const std::optional<std::uint32_t> n = cli::parse_u32(env);
    if (n && *n > 0) return *n;
  }
  return util::ThreadPool::hardware_threads();
}

std::uint64_t campaign_config_hash(const CampaignSpec& spec) {
  std::uint64_t state = 0x1C2C0DE5ULL;
  hash_fold(state, spec.variants.size());
  for (const SchemeVariant& v : spec.variants) {
    hash_fold(state, v.label);
    hash_fold(state, v.scheme.name);
    hash_fold(state, v.scheme.decay_window);
    hash_fold(state, v.scheme.scrub_interval);
    hash_fold(state, static_cast<std::uint64_t>(v.scheme.victim_policy));
    hash_fold(state, static_cast<std::uint64_t>(v.scheme.write_policy));
    hash_fold(state, (v.scheme.replication_enabled ? 1u : 0u) |
                         (v.scheme.speculative_ecc_loads ? 2u : 0u) |
                         (v.scheme.leave_replicas_on_eviction ? 4u : 0u));
    if (v.config) hash_fold_config(state, *v.config);
  }
  hash_fold(state, spec.apps.size());
  for (const trace::App app : spec.apps) {
    hash_fold(state, static_cast<std::uint64_t>(app));
  }
  hash_fold_config(state, spec.config);
  hash_fold(state, resolved_instruction_count(spec));
  hash_fold(state, spec.trials);
  hash_fold(state, spec.base_seed);
  hash_fold(state, spec.derive_seeds ? 1 : 0);
  if (spec.sampling.enabled()) {
    // Sampling changes the numbers, so it fingerprints — but only when
    // enabled, keeping hashes of unsampled specs stable across versions.
    hash_fold(state, 0x5A3D11ULL);  // domain separator
    hash_fold(state, spec.sampling.warmup_instructions);
    hash_fold(state, spec.sampling.windows);
    hash_fold(state, spec.sampling.window_width);
    hash_fold(state, static_cast<std::uint64_t>(spec.sampling.mode));
    hash_fold(state, spec.sampling.seed);
  }
  if (spec.trace.enabled()) {
    // The trace's content identity and interval decomposition determine
    // every cell; the path does not fold (moving a file never changes the
    // experiment). Folds only when a trace is attached, keeping synthetic
    // spec hashes stable across versions.
    hash_fold(state, 0x7C4CE5ULL);  // domain separator
    hash_fold(state, spec.trace.fingerprint);
    hash_fold(state, spec.trace.records);
    hash_fold(state, spec.trace.shard_instructions);
  }
  return state;
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  ICR_PROF_ZONE("Campaign::run");
  const std::uint64_t instructions = resolved_instruction_count(spec);
  const std::size_t apps = spec.app_axis();
  const std::size_t trials = spec.trials == 0 ? 1 : spec.trials;
  const std::size_t total = spec.variants.size() * apps * trials;

  CampaignResult result;
  result.meta.base_seed = spec.base_seed;
  result.meta.config_hash = campaign_config_hash(spec);
  result.meta.instructions = instructions;
  result.meta.trials = static_cast<std::uint32_t>(trials);
  result.meta.sampling = spec.sampling;
  result.meta.geometry = spec.geometry.enabled();
  result.cells.resize(total);

  const auto start = std::chrono::steady_clock::now();
  const unsigned threads =
      static_cast<unsigned>(std::min<std::size_t>(threads_, total == 0 ? 1 : total));
  result.meta.threads = threads;

  ProgressReporter reporter(progress_, total, instructions);
  auto run_index = [&](std::size_t index) {
    const std::size_t variant_idx = index / (apps * trials);
    const std::size_t app_idx = (index / trials) % apps;
    const std::size_t trial_idx = index % trials;
    result.cells[index] = run_campaign_cell(spec, variant_idx, app_idx,
                                            trial_idx, instructions);
    reporter.note();
  };

  if (threads <= 1 || total <= 1) {
    for (std::size_t i = 0; i < total; ++i) run_index(i);
  } else {
    // The calling thread participates in parallel_for, so N-way parallelism
    // needs N-1 pool workers.
    util::ThreadPool pool(threads - 1);
    util::parallel_for(pool, total, run_index);
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.meta.completed_cells = reporter.completed();
  result.meta.wall_seconds = elapsed.count();
  result.meta.cells_per_second =
      elapsed.count() > 0.0 ? static_cast<double>(total) / elapsed.count()
                            : 0.0;
  result.meta.mips = result.meta.cells_per_second *
                     static_cast<double>(instructions) / 1e6;
  return result;
}

}  // namespace icr::sim
