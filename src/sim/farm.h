// Multi-process campaign farm: sharding, spool protocol, checkpointed cell
// records, and the streaming aggregator.
//
// The campaign engine (src/sim/campaign.h) scales a (variants x apps x
// trials) grid to one machine's threads; the farm scales it to any number
// of worker *processes* — forked by one coordinator or started by hand on
// several hosts sharing a spool directory — while keeping the engine's
// determinism contract: exported results are bit-identical at any worker
// count, including after an arbitrary kill/resume, because every cell's
// seed comes from derive_cell_seed() and never from which process ran it.
//
// Spool directory layout:
//
//   spool/
//     manifest.json              # grid + sharding + config fingerprint
//     claims/unit_NNNNNN.claim   # exclusive-create claim lock per unit
//     units/unit_NNNNNN.json     # completed unit: per-cell records
//
// Protocol (docs/CAMPAIGN.md has the full write-up):
//
//   * The coordinator shards the grid into contiguous work units of
//     `unit_cells` cells and atomically writes manifest.json.
//   * A worker scans units in index order; for each unit whose record file
//     does not exist it tries to claim it by exclusively creating the
//     claim file (util::fs::try_create_exclusive — at most one winner per
//     unit, on any POSIX filesystem). The winner runs the unit's cells
//     through run_campaign_cell() and publishes units/unit_N.json by
//     atomic rename. Workers exit when a full scan finds nothing to claim.
//   * A killed worker leaves a claim without a record (and possibly a temp
//     file). Resume = open_spool() with resume set, which clears stale
//     claims, then more workers: the unit is re-run from scratch and —
//     cells being deterministic — produces the exact bytes the killed
//     worker would have.
//   * The aggregator streams completed units in index order (== grid
//     order, units are contiguous ranges) into the CSV/JSON exporters
//     through the shared results_io building blocks. Memory is bounded by
//     one unit, never the grid.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "src/sim/campaign.h"
#include "src/util/json.h"

namespace icr::sim::farm {

class WorkerTelemetry;  // src/sim/farm_telemetry.h

// Bumped when the manifest/unit schema changes incompatibly; readers
// reject other versions instead of misparsing them.
inline constexpr int kFormatVersion = 1;

// Contiguous half-open range [begin, end) of grid cell indices.
struct WorkUnit {
  std::uint32_t index = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t cells() const noexcept { return end - begin; }
};

// Deterministic sharding: ceil(total/unit_cells) contiguous units in index
// order; every cell index in [0, total) lands in exactly one unit
// (property-tested in tests/farm_test.cc). unit_cells == 0 is treated as 1.
[[nodiscard]] std::vector<WorkUnit> shard_units(std::uint64_t total_cells,
                                                std::uint64_t unit_cells);

// Everything a worker process needs to reproduce the campaign spec, plus
// the sharding and the config fingerprint that guards against running a
// spool with mismatched code or flags. The scheme/app name lists rebuild
// the spec CLI-style (spec_from_manifest); library users that construct
// specs programmatically can leave them empty and pass the spec to
// run_worker_loop directly — the config_hash check still applies.
struct Manifest {
  int version = kFormatVersion;
  std::uint64_t config_hash = 0;  // campaign_config_hash of the spec
  std::uint64_t base_seed = 0;
  std::uint64_t instructions = 0;  // resolved budget per cell (never 0)
  std::uint32_t trials = 1;
  bool derive_seeds = false;
  std::uint32_t variant_count = 0;
  std::uint32_t app_count = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t unit_cells = 0;  // shard size
  std::uint32_t unit_count = 0;
  std::vector<std::string> schemes;  // variant labels, cli-resolvable
  std::vector<std::string> apps;     // app names, cli-resolvable
  std::uint64_t decay_window = 0;
  std::string fault_model = "random";
  double fault_probability = 0.0;
  SamplingOptions sampling;
  // Trace campaign (interval shards replace the app axis). Serialized as
  // an optional "trace" object only when enabled, so synthetic-campaign
  // manifests are byte-identical to previous versions. An old reader
  // ignores the key, reconstructs a synthetic spec, and fails the config
  // hash check — a loud mismatch, never silently different numbers.
  TraceCampaignOptions trace;
  // Geometry sweep axes (docs/GEOMETRY.md). Serialized as an optional
  // "geometry" object only when enabled — same schema-stability contract
  // as "trace". For swept campaigns `schemes` carries the *base* scheme
  // labels (cli-resolvable); spec_from_manifest re-runs the deterministic
  // expand_geometry_sweep() to recover the full variant grid, and the
  // config hash check proves the re-expansion matched.
  GeometrySweep geometry;

  [[nodiscard]] std::string to_json() const;
  // Parses a manifest document (throws std::runtime_error on malformed
  // input or a format-version mismatch).
  [[nodiscard]] static Manifest parse(const std::string& text);
};

// Manifest for `spec`, with the grid expanded and instructions resolved.
// The scheme/app name lists are filled from the spec's variant labels and
// app names — resolvable back through sim::cli for CLI-built specs.
[[nodiscard]] Manifest manifest_for(const CampaignSpec& spec,
                                    std::uint64_t unit_cells);

// Rebuilds the CampaignSpec of a CLI-built manifest (scheme/app names plus
// the flag-level knobs). Exits via sim::cli lookups on unknown names;
// callers must verify campaign_config_hash(spec) == manifest.config_hash
// before trusting the reconstruction (the CLI worker does).
[[nodiscard]] CampaignSpec spec_from_manifest(const Manifest& manifest);

// Spool paths. unit/claim files embed the unit index zero-padded so
// lexicographic directory order equals index order.
[[nodiscard]] std::string manifest_path(const std::string& spool);
[[nodiscard]] std::string unit_path(const std::string& spool,
                                    std::uint32_t unit);
[[nodiscard]] std::string claim_path(const std::string& spool,
                                     std::uint32_t unit);

// Creates the spool directories and atomically writes the manifest.
void init_spool(const std::string& spool, const Manifest& manifest);

// Reads and parses spool/manifest.json (throws on absence or mismatch).
[[nodiscard]] Manifest load_manifest(const std::string& spool);

// Removes claims whose unit record was never published — the footprint of
// killed workers — so their units become claimable again. Returns how many
// were cleared; `cleared_units`, when given, receives their indices (the
// coordinator logs one stale-clear telemetry event per unit). Only safe
// when no worker is currently running; the coordinator calls it on
// --resume before forking workers.
std::size_t clear_stale_claims(const std::string& spool,
                               std::uint32_t unit_count,
                               std::vector<std::uint32_t>* cleared_units =
                                   nullptr);

// A coordinator's spool after open_spool: the manifest it runs under and
// how many stale claims a resume cleared.
struct OpenedSpool {
  Manifest manifest;
  std::size_t cleared = 0;
};

// Opens `spool` for a coordinator of `manifest`. Fresh: refuses a spool
// that already holds a manifest, else init_spool. Resume: refuses a stored
// manifest whose config hash differs, keeps its sharding, clears stale
// claims and, with `log_events`, logs one stale_clear per cleared unit and
// one resume_sweep as "coordinator". Refusals are usage errors
// (std::invalid_argument); I/O and parse failures throw
// std::runtime_error. Only safe while no worker runs.
[[nodiscard]] OpenedSpool open_spool(const std::string& spool,
                                     const Manifest& manifest, bool resume,
                                     bool log_events);

// One checkpointed cell: grid coordinates, labels, the exported metric
// vector as raw IEEE-754 bit patterns (exact round-trip — format_value of
// a reloaded metric prints the same bytes the in-memory exporter would),
// and sampling provenance.
struct CellRecord {
  std::uint32_t variant_idx = 0;
  std::uint32_t app_idx = 0;
  std::uint32_t trial_idx = 0;
  std::uint64_t seed = 0;
  std::string variant;
  std::string app;
  std::vector<std::uint64_t> metric_bits;
  SampleProvenance sampling;
  // Serialized as an optional "geometry" object only when present, so
  // unswept unit records keep their historical bytes.
  GeometryProvenance geometry;

  [[nodiscard]] static CellRecord from_cell(const CellResult& cell);
  [[nodiscard]] std::vector<double> metrics() const;
};

// Unit record document: {"version", "unit", "cells": [...]}.
[[nodiscard]] std::string unit_to_json(std::uint32_t unit,
                                       const std::vector<CellRecord>& cells);
// Throws on malformed input, version mismatch, or a record for a
// different unit index.
[[nodiscard]] std::vector<CellRecord> parse_unit_json(
    const std::string& text, std::uint32_t expected_unit);

// Runs the cells of `unit` sequentially through run_campaign_cell().
// `instructions` must equal the manifest's resolved budget. `on_cell`,
// when set, fires with the grid cell index before each cell runs (worker
// telemetry hangs its between-cell heartbeat check here); it never
// observes or influences the cell results.
[[nodiscard]] std::vector<CellRecord> run_unit(
    const CampaignSpec& spec, const WorkUnit& unit,
    std::uint64_t instructions,
    const std::function<void(std::uint64_t)>& on_cell = nullptr);

struct WorkerReport {
  std::uint32_t units_run = 0;
  std::uint64_t cells_run = 0;
};

// The worker loop: scan, claim, run, publish, until a full scan claims
// nothing (or `max_units` units were run; 0 = unlimited). `spec` must
// hash-match the manifest (checked; throws on mismatch). `on_unit_done`,
// when set, fires after each published unit — the CLI worker uses it for
// progress lines. `telemetry`, when set, publishes heartbeats and
// lifecycle events into the spool (src/sim/farm_telemetry.h); it writes
// only under spool/hb and spool/events, so the unit records — and the
// byte-identity of aggregated exports — are untouched.
WorkerReport run_worker_loop(
    const std::string& spool, const CampaignSpec& spec,
    std::uint32_t max_units = 0,
    const std::function<void(const WorkUnit&)>& on_unit_done = nullptr,
    WorkerTelemetry* telemetry = nullptr);

// One worker process's knobs: the `run_campaign --worker` flags.
struct WorkerOptions {
  std::string worker_id;           // hb/ and events/ identity; "" = pid<pid>
  double heartbeat_seconds = 5.0;  // between-cell cadence; 0 = no telemetry
  std::uint32_t max_units = 0;     // stop after N units; 0 = until dry
  bool prof = false;  // leave a Chrome trace under spool/prof/
  bool quiet = false;
};

// A whole worker: rebuilds the spec from the spool's manifest and runs
// run_worker_loop with heartbeats and, with `prof`, a capture on the
// shared fleet clock. Returns the process exit status: 0, or 1 after
// printing the error. `run_campaign --worker` and every worker the
// coordinator forks run this one function.
int run_worker(const std::string& spool, const WorkerOptions& options);

// Completion census of a spool, by unit record files present.
struct SpoolStatus {
  std::uint32_t unit_count = 0;
  std::uint32_t units_done = 0;
  std::uint64_t cells_done = 0;
  std::uint32_t claims_outstanding = 0;  // claimed but not yet published

  [[nodiscard]] bool complete() const noexcept {
    return units_done == unit_count;
  }
};

[[nodiscard]] SpoolStatus scan_spool(const std::string& spool,
                                     const Manifest& manifest);

// Streams completed units, in index order, into CSV and/or JSON sinks
// through the shared results_io building blocks. State is a fixed set of
// counters — independent of grid size (asserted in tests/farm_test.cc) —
// so a million-cell campaign aggregates in constant memory.
class FarmAggregator {
 public:
  // Either sink may be null; the other still streams.
  FarmAggregator(const Manifest& manifest, std::ostream* csv,
                 std::ostream* json);

  // Must be called with consecutive unit indices starting at 0; the cells
  // of `records` are appended in their stored order.
  void add_unit(std::uint32_t unit, const std::vector<CellRecord>& records);

  // Finishes the JSON document; throws if the streamed cell count does not
  // equal the manifest's grid size (an incomplete spool must never silently
  // export a truncated campaign).
  void finish();

  // Bytes of aggregator-owned state (excluding the manifest copy's name
  // lists, which scale with the spec, not with cells): the bounded-memory
  // guarantee the tests pin down.
  [[nodiscard]] std::size_t state_bytes() const noexcept;

  [[nodiscard]] std::uint64_t cells_emitted() const noexcept {
    return cells_emitted_;
  }

 private:
  void flush_json();

  Manifest manifest_;
  std::ostream* csv_;
  std::ostream* json_;
  std::string json_text_;  // at most one cell between flushes
  util::JsonWriter json_writer_;
  std::uint32_t next_unit_ = 0;
  std::uint64_t cells_emitted_ = 0;
  bool finished_ = false;
};

// Aggregates a complete spool to files (empty path = skip that format).
// Throws if the spool is incomplete or a unit fails to parse.
void aggregate_spool(const std::string& spool, const Manifest& manifest,
                     const std::string& csv_out, const std::string& json_out);

// Heartbeat ages that classify a worker (farm_telemetry.h).
struct StalenessPolicy {
  // A worker whose last heartbeat is at least this old is a straggler...
  double straggler_after_seconds = 15.0;
  // ...and at least this old is presumed dead (its claim is re-runnable
  // after a resume sweep).
  double dead_after_seconds = 60.0;
};

// A child process that wait_for_child reaped.
struct ChildExit {
  pid_t pid = 0;
  int exit_code = -1;  // its exit status; -1 if a signal ended it
};

// Reaps the first of `children` found to have exited, or returns nullopt
// once `timeout_seconds` pass with none exiting. Wakes as soon as a child
// exits: it blocks SIGCHLD in the calling thread for the call, polls the
// children, and waits for the signal with sigtimedwait, so an exit between
// the poll and the wait stays pending instead of being lost. (A thread
// that leaves SIGCHLD unblocked can take the signal first; the wait then
// ends at the timeout.)
std::optional<ChildExit> wait_for_child(std::span<const pid_t> children,
                                        double timeout_seconds);

// The `run_campaign --farm=DIR` flags.
struct CoordinatorOptions {
  unsigned workers = 0;  // processes to fork; capped at the unit count
  std::uint64_t unit_cells = 4;
  bool resume = false;
  double heartbeat_seconds = 5.0;  // handed to every worker exactly
  std::string farm_trace_out;      // merged fleet Chrome trace; workers prof
  StalenessPolicy staleness;       // for the --workers=0 census
  std::string csv_path;
  std::string json_path;
  bool quiet = false;
  bool progress = false;
};

// The farm coordinator: opens (or resumes) the spool, forks the workers —
// each child runs run_worker and leaves with _exit — then reports
// progress, reaps, and aggregates a complete spool into the exports. The
// coordinator stays single-threaded, so no other thread can take the
// SIGCHLD that wait_for_child waits for. Returns the process exit status:
// 0 exported (or a --workers=0 init), 1 on I/O failure or an incomplete
// grid, 2 on a refused spool.
int run_coordinator(const std::string& spool, const CampaignSpec& spec,
                    const CoordinatorOptions& options);

}  // namespace icr::sim::farm
