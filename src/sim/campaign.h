// Parallel experiment campaign engine.
//
// A campaign expands a (scheme variants x applications x trials) grid into
// independent simulation cells and runs them concurrently on a thread pool
// (src/util/thread_pool.h). Three properties make campaigns reproducible
// at any parallelism:
//
//   * Each cell owns its entire simulated system (workload, caches,
//     injector, pipeline) — cells share no mutable state.
//   * Each cell's RNG seed is derived *statelessly* with SplitMix64 from
//     (base_seed, variant_idx, app_idx, trial_idx), so seeds do not depend
//     on which thread ran the cell or in what order.
//   * Results land in pre-assigned slots of a flat vector in grid order.
//
// Consequently a campaign's per-cell metrics are bit-identical whether it
// runs on 1 thread or 64. Thread count resolves as: explicit argument >
// ICR_SIM_THREADS environment variable > hardware concurrency.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/observability.h"
#include "src/rel/rel_tracker.h"
#include "src/sim/experiment.h"
#include "src/sim/sampling.h"

namespace icr::sim {

// Stateless SplitMix64 derivation of one cell's seed. Deterministic in its
// four inputs; distinct cells of one campaign get distinct, decorrelated
// seeds (uniqueness is asserted for real grids in tests/campaign_test.cc).
[[nodiscard]] std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                                             std::size_t variant_idx,
                                             std::size_t app_idx,
                                             std::size_t trial_idx) noexcept;

// A campaign driven by a recorded ICRT-v2 trace instead of the synthetic
// app axis. The trace's instruction budget splits into
// `shard_instructions`-wide intervals; each interval becomes one cell on
// the app axis (cold-start simulator, seek_to the interval's begin, run
// its width), so one large trace spreads across the thread pool exactly
// like synthetic apps do. The interval decomposition lives in the spec —
// not in the executor — which is what keeps runs at any thread count
// byte-identical to a single-threaded run.
struct TraceCampaignOptions {
  std::string path;
  // Instructions per interval cell; 0 = one cell covering the whole budget.
  std::uint64_t shard_instructions = 0;
  // Content provenance, filled from the file by resolve_trace_campaign().
  // The fingerprint folds into campaign_config_hash and is re-verified
  // when each cell opens the trace, so a cell replaying a file modified
  // mid-campaign fails loudly instead of producing silently different
  // numbers.
  std::uint64_t fingerprint = 0;
  std::uint64_t records = 0;

  [[nodiscard]] bool enabled() const noexcept { return !path.empty(); }
};

// Degraded-geometry sweep axes (docs/GEOMETRY.md). When enabled(), the
// campaign grid gains geometry dimensions: expand_geometry_sweep() crosses
// every base scheme variant with (size × associativity × disabled-way
// count), producing one labelled variant per geometry cell whose per-variant
// SimConfig override carries the dL1 geometry and way-disable draw. The
// expansion is deterministic: the same base schemes and axes always give
// the identical grid and config hash.
struct GeometrySweep {
  std::vector<std::uint32_t> sizes;   // dL1 sizes in bytes; empty = spec dL1
  std::vector<std::uint32_t> assocs;  // associativities; empty = spec dL1
  std::vector<std::uint32_t> ways_disabled;  // k per set; empty = {0}
  mem::WayDisableConfig::Pattern pattern =
      mem::WayDisableConfig::Pattern::kFixed;
  std::uint64_t way_seed = 0x0DDB17;  // per-set draw seed (kRandom)
  // Base scheme labels recorded by expand_geometry_sweep(); a non-empty
  // list marks the spec as already expanded.
  std::vector<std::string> base_schemes;

  [[nodiscard]] bool enabled() const noexcept {
    return !sizes.empty() || !assocs.empty() || !ways_disabled.empty();
  }
};

struct CampaignSpec {
  std::vector<SchemeVariant> variants;
  std::vector<trace::App> apps;
  TraceCampaignOptions trace;  // when enabled(), replaces the app axis
  // Geometry axes; absent (the default) leaves the variant grid, config
  // hash and export schemas exactly as before the degraded-geometry PR.
  GeometrySweep geometry;
  SimConfig config = SimConfig::table1();  // per-variant override wins
  std::uint64_t instructions = 0;          // 0 = default_instruction_count()
  std::uint32_t trials = 1;                // repeated cells per (variant, app)
  std::uint64_t base_seed = 0x1C9CA37ULL;  // campaign master seed

  // When true, every cell's workload seed and fault-injection seed are
  // replaced by streams derived from derive_cell_seed(). When false (the
  // default, used by the single-trial figure matrices) cells keep the
  // calibrated profile seeds and config.fault_seed, so legacy run_matrix
  // results are unchanged.
  bool derive_seeds = false;

  // Per-cell observability (interval telemetry / event tracing). Each cell
  // owns its own registry/sampler/trace — no cross-thread sharing — and the
  // options are deliberately excluded from campaign_config_hash: turning
  // telemetry on never changes the experiment (guarded by tier-1 test).
  obs::ObsOptions obs;

  // Per-cell analytical reliability tracking (src/rel). Owned per cell like
  // observability, and likewise excluded from campaign_config_hash: the
  // tracker observes the simulation without perturbing it (bit-identity
  // guarded by tier-1 test).
  rel::RelOptions rel;

  // Checkpointed warmup / interval sampling (src/sim/sampling.h). Unlike
  // obs/rel this DOES change the numbers (estimates, not full
  // measurements), so when enabled() it folds into campaign_config_hash
  // and every cell carries a SampleProvenance. Disabled sampling leaves
  // hash, results and exports byte-identical to a spec without the field.
  // Random-mode placement derives a per-cell stream from
  // (base_seed ^ mix64(sampling.seed), cell coordinates), so sampled
  // campaigns stay bit-identical at any thread count.
  SamplingOptions sampling;

  // Size of the second grid axis: trace interval shards when a trace is
  // attached (requires resolve_trace_campaign() first), synthetic apps
  // otherwise.
  [[nodiscard]] std::size_t app_axis() const;

  [[nodiscard]] std::size_t cell_count() const {
    return variants.size() * app_axis() * trials;
  }
};

// Throws std::runtime_error naming the trace file `path` when `label`, the
// part of it an unquoted CSV cell label carries (the basename in campaigns,
// the whole path in icr_sim), holds a ',' or a line break.
void check_trace_label(const std::string& path, const std::string& label);

// Checks the label, probes spec.trace.path and fills fingerprint/records
// (no-op without a trace). Call once before hashing, manifesting, or running
// a trace campaign; throws std::runtime_error on a bad label or trace.
void resolve_trace_campaign(CampaignSpec& spec);

// Crosses spec.variants with the geometry axes (no-op when
// spec.geometry.enabled() is false). Each base variant × (size, assoc, k)
// cell becomes one variant labelled "<base>@<size>/<assoc>w-d<k>" whose
// config override carries the geometry and way-disable draw; the base
// labels are recorded in spec.geometry.base_schemes. Idempotent per spec
// (expanding twice throws). Call once, before hashing or manifesting;
// throws std::invalid_argument on a malformed geometry (non-power-of-two,
// k >= associativity, ...).
void expand_geometry_sweep(CampaignSpec& spec);

// Deterministic geometry cell label suffix: "@<size>/<assoc>w-d<k>" with
// the size printed as "16K"-style when divisible by 1024. Comma-free, so
// expanded variant labels stay CSV-safe.
[[nodiscard]] std::string geometry_label_suffix(std::uint32_t size_bytes,
                                                std::uint32_t assoc,
                                                std::uint32_t ways_disabled);

// The per-campaign instruction budget: spec.instructions when set, else
// the whole trace (trace campaigns) or default_instruction_count().
[[nodiscard]] std::uint64_t resolved_instruction_count(
    const CampaignSpec& spec);

// One interval of a trace campaign's budget. Replay starts at trace
// record `begin % records` and runs `instructions` instructions.
struct TraceShard {
  std::uint64_t begin = 0;
  std::uint64_t instructions = 0;
};

[[nodiscard]] std::size_t trace_shard_count(const CampaignSpec& spec);
[[nodiscard]] TraceShard trace_shard(const CampaignSpec& spec,
                                     std::size_t shard_idx);
// Deterministic, comma-free cell label: "<basename>@<begin>+<width>" —
// what RunResult::app carries in place of a synthetic app name.
[[nodiscard]] std::string trace_shard_label(const CampaignSpec& spec,
                                            std::size_t shard_idx);

// Grid coordinates of one cell plus the seed it ran with.
struct CampaignCell {
  std::uint32_t variant_idx = 0;
  std::uint32_t app_idx = 0;
  std::uint32_t trial_idx = 0;
  std::uint64_t seed = 0;  // derived seed (0 when derive_seeds is false)
};

// Per-cell geometry provenance: the resolved dL1 geometry the cell ran
// with. `present` is true only for cells of a geometry-swept campaign —
// exports add geometry columns exactly when a sweep was requested, so
// legacy export schemas are byte-stable (mirrors SampleProvenance).
struct GeometryProvenance {
  bool present = false;
  std::uint32_t dl1_size_bytes = 0;
  std::uint32_t dl1_assoc = 0;
  std::uint32_t ways_disabled = 0;  // per-set disabled-way count
};

struct CellResult {
  CampaignCell cell;
  RunResult result;
  // How the result was obtained; sampling.sampled is false for full runs.
  SampleProvenance sampling;
  // Resolved dL1 geometry; present only in geometry-swept campaigns.
  GeometryProvenance geometry;
  // Telemetry extract; null when the spec's ObsOptions asked for nothing.
  std::unique_ptr<obs::CellObservability> obs;
  // Analytical reliability report; null unless the spec enabled rel.
  std::unique_ptr<rel::RelReport> rel;
};

// Runs one cell of the expanded grid, exactly as CampaignRunner would:
// same seed derivation, same sampling placement, same obs/rel wiring.
// `instructions` must be the resolved budget (spec.instructions, or
// default_instruction_count() when that is 0). Public so callers that time
// or trace single cells (perfbench) run bit-identical cells to a campaign;
// which thread runs a cell can never change its numbers.
[[nodiscard]] CellResult run_campaign_cell(const CampaignSpec& spec,
                                           std::size_t variant_idx,
                                           std::size_t app_idx,
                                           std::size_t trial_idx,
                                           std::uint64_t instructions);

// Campaign-level metadata exported alongside the cells (results_io.h).
struct CampaignMeta {
  std::uint64_t base_seed = 0;
  std::uint64_t config_hash = 0;  // fingerprint of the expanded spec
  std::uint64_t instructions = 0;
  std::uint32_t trials = 1;
  unsigned threads = 1;
  SamplingOptions sampling;  // copy of the spec's sampling request
  bool geometry = false;     // geometry sweep — exports carry geometry columns
  std::uint64_t completed_cells = 0;
  double wall_seconds = 0.0;
  double cells_per_second = 0.0;
  // Simulated MIPS: cells * instructions-per-cell / wall seconds / 1e6 —
  // the throughput number the ROADMAP's "fast as the hardware allows"
  // north star is judged by.
  double mips = 0.0;
};

struct CampaignResult {
  CampaignMeta meta;
  // Grid order: variant-major, then app, then trial — independent of
  // scheduling. cells.size() == spec.cell_count().
  std::vector<CellResult> cells;

  [[nodiscard]] const CellResult& at(std::size_t variant_idx,
                                     std::size_t app_idx,
                                     std::size_t trial_idx, std::size_t apps,
                                     std::size_t trials) const {
    return cells[(variant_idx * apps + app_idx) * trials + trial_idx];
  }
};

// Thread-count resolution: `requested` if nonzero, else ICR_SIM_THREADS if
// set to a positive integer, else hardware concurrency (>= 1).
[[nodiscard]] unsigned resolve_thread_count(unsigned requested = 0);

// Order-insensitive-free fingerprint of everything that determines a
// campaign's numbers: variants (label + scheme knobs), apps, instruction
// count, trials, base seed, seed mode, and fault configuration. Two
// campaigns with equal hashes ran the same experiment.
[[nodiscard]] std::uint64_t campaign_config_hash(const CampaignSpec& spec);

// Live progress reporting for long campaigns. Printing happens on the
// worker that finished a cell, under a mutex, at most once per
// `min_interval_seconds` — short campaigns therefore stay silent.
struct ProgressOptions {
  bool enabled = false;
  double min_interval_seconds = 1.0;
};

class CampaignRunner {
 public:
  // threads == 0 defers to resolve_thread_count().
  explicit CampaignRunner(unsigned threads = 0)
      : threads_(resolve_thread_count(threads)) {
    progress_.enabled = default_progress_enabled();
  }

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  CampaignRunner& with_progress(const ProgressOptions& options) {
    progress_ = options;
    return *this;
  }
  [[nodiscard]] const ProgressOptions& progress() const noexcept {
    return progress_;
  }

  // Process-wide default for newly constructed runners. The bench binaries
  // flip this from bench::init() (--quiet turns it back off) so every
  // campaign they run reports progress without plumbing options through
  // each figure.
  static void set_default_progress_enabled(bool enabled) noexcept;
  [[nodiscard]] static bool default_progress_enabled() noexcept;

  // Runs every cell of the grid (possibly concurrently) and returns the
  // results in deterministic grid order.
  [[nodiscard]] CampaignResult run(const CampaignSpec& spec) const;

 private:
  unsigned threads_;
  ProgressOptions progress_;
};

}  // namespace icr::sim
