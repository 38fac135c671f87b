// Trace-driven out-of-order superscalar pipeline in the spirit of
// SimpleScalar's sim-outorder (the paper's simulation vehicle).
//
// Per cycle, in reverse stage order (so values flow between stages with a
// one-cycle skew, as in a real pipeline):
//   commit    — up to 4 completed instructions leave the RUU head in order;
//               stores perform their dL1 write here (they are buffered, so
//               a store occupies commit for extra cycles only if a
//               write-through buffer stall says so)
//   writeback — instructions whose FU latency elapsed become complete and
//               wake their dependents; a resolving mispredicted branch
//               unblocks fetch after the 3-cycle penalty
//   issue     — up to 4 ready instructions claim functional units out of
//               order, oldest first; loads access the ICR dL1 (or forward
//               from the LSQ)
//   dispatch  — up to 4 instructions move from the fetch queue into the
//               16-entry RUU / 8-entry LSQ
//   fetch     — up to 4 instructions enter the fetch queue, subject to L1I
//               misses, taken-branch redirects and branch mispredictions
//               (trace-driven: a mispredicted branch stalls fetch until it
//               resolves, modelling the wrong-path bubble)
//
// The scheduler keeps every in-flight instruction in one window
// (src/cpu/window.h), and a cycle costs work in proportion to what happens
// in it, not to window occupancy:
//   * One window. Fetch writes each instruction into its slot (seq & mask)
//     once; dispatch, issue, writeback and commit move head/dispatched/tail
//     counters and bits. [head, dispatched) is the RUU, [dispatched, tail)
//     the fetch queue, and the LSQ a count plus a bitmask of store slots.
//     An instruction held by an L1I miss waits in the tail slot.
//   * Bitmask sets. The window has at most 64 slots, so the ready set
//     (dispatched, unissued, all operands available) and the in-flight set
//     (issued, not completed) are one uint64_t each. At dispatch each
//     instruction counts its producers that have not completed and queues
//     itself on their wakeup lists; writeback decrements the counts and
//     sets ready bits. Issue rotates the ready set so bit k is seq head + k
//     and walks it oldest first.
//   * Completion-driven writeback. Writeback does nothing until the
//     earliest completion cycle, then walks the in-flight bits in slot
//     order; the order cannot change a result (see do_writeback).
//   * Idle spans. When no stage can act (next_wake), the clock jumps to the
//     first cycle one can: the next completion, the end of a write-buffer
//     commit block or of a fetch block. advance_clock makes the span's
//     per-cycle fault draws and scrubber steps, the span counts as fetch
//     stall cycles if fetch was stalled, and the dead-block predictor and
//     write buffer catch up from the cycle number on their next use. A
//     memory-bound app such as mcf is idle in over 90% of its cycles.
// Writeback still precedes issue, so a consumer issues in the very cycle
// its producer completes, exactly as a full per-cycle re-scan would.
//
// The pipeline also performs end-to-end data verification: store values are
// recorded as architectural truth and every load's delivered value is
// compared against it, so silent data corruption (a fault that slipped past
// parity/ECC/replicas) is counted, not just modelled.
#pragma once

#include <cstdint>

#include "src/core/icr_cache.h"
#include "src/cpu/branch_predictor.h"
#include "src/cpu/functional_units.h"
#include "src/cpu/window.h"
#include "src/fault/fault_injector.h"
#include "src/mem/memory_hierarchy.h"
#include "src/trace/instruction.h"
#include "src/util/counter_table.h"
#include "src/util/word_map.h"

namespace icr::cpu {

struct PipelineStats {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicted_branches = 0;
  std::uint64_t forwarded_loads = 0;
  std::uint64_t fetch_stall_cycles = 0;
  // Loads that delivered a wrong value with no error indication at all.
  std::uint64_t silent_corrupt_loads = 0;
  // Loads flagged unrecoverable by the cache (error seen, data lost).
  std::uint64_t unrecoverable_loads = 0;

  [[nodiscard]] double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed) /
                             static_cast<double>(cycles);
  }

  static constexpr util::CounterRow<PipelineStats> kCounters[] = {
      {"cycles", &PipelineStats::cycles},
      {"committed", &PipelineStats::committed},
      {"loads", &PipelineStats::loads},
      {"stores", &PipelineStats::stores},
      {"branches", &PipelineStats::branches},
      {"mispredicted_branches", &PipelineStats::mispredicted_branches},
      {"forwarded_loads", &PipelineStats::forwarded_loads},
      {"fetch_stall_cycles", &PipelineStats::fetch_stall_cycles},
      {"silent_corrupt_loads", &PipelineStats::silent_corrupt_loads},
      {"unrecoverable_loads", &PipelineStats::unrecoverable_loads},
  };
};
static_assert(util::table_covers<PipelineStats>());

class Pipeline {
 public:
  // The core of Table 1 (the paper varies only the dL1, never the core).
  static constexpr std::uint32_t kFetchWidth = 4;   // instructions/cycle
  static constexpr std::uint32_t kDecodeWidth = 4;  // instructions/cycle
  static constexpr std::uint32_t kIssueWidth = 4;   // instructions/cycle
  static constexpr std::uint32_t kCommitWidth = 4;  // instructions/cycle
  static constexpr std::uint32_t kRuuSize = 16;     // instructions
  static constexpr std::uint32_t kLsqSize = 8;      // instructions
  static constexpr std::uint32_t kFetchQueueSize = 16;    // instructions
  static constexpr std::uint32_t kMispredictPenalty = 3;  // cycles

  Pipeline(trace::TraceSource& source, core::IcrCache& dl1,
           mem::MemoryHierarchy& hierarchy,
           fault::FaultInjector* injector = nullptr);

  // Runs until `instruction_count` more instructions commit; returns the
  // stats. A run that takes over 10,000 cycles per instruction is a model
  // deadlock and fails an ICR_CHECK.
  const PipelineStats& run(std::uint64_t instruction_count);

  // Functional fast-forward: advances architectural state — dL1/L2/L1I
  // contents, branch predictor, decay and scrub clocks, fault injection,
  // golden memory — by `instruction_count` committed instructions without
  // modelling out-of-order timing. Instructions in flight from a preceding
  // detailed run() are first drained with fetch frozen (detailed ticks), so
  // the trace position stays exact; the drain can overshoot the target by
  // at most the in-flight capacity (fetch queue + RUU). The clock advances
  // at the cumulative CPI observed so far (1.0 from cold) so cycle-driven
  // machinery ticks at a realistic rate. Used by the sampling controller
  // (src/sim/sampling.h) for checkpointed warmup and inter-window gaps.
  const PipelineStats& fast_forward(std::uint64_t instruction_count);

  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BranchPredictor& branch_predictor() const noexcept {
    return predictor_;
  }
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }
  // Cycles simulated by the detailed core (run() and fast_forward()'s
  // drain), as opposed to fast_forward()'s functional clock.
  [[nodiscard]] std::uint64_t detailed_cycles() const noexcept {
    return cycle_ - functional_cycles_;
  }

 private:
  // One detailed cycle: every stage, then fault injection and scrubbing.
  // An idle span before it is skipped first, to next_wake(guard).
  void tick(std::uint64_t guard);
  // The first cycle from cycle_ on at which any stage can act: cycle_
  // itself unless all five are stuck, else the earliest of the writeback
  // completion, the write-buffer commit block, the fetch block (when no
  // mispredicted branch holds fetch) and `guard`, the caller's deadlock
  // guard, so a true deadlock still reaches its ICR_CHECK.
  [[nodiscard]] std::uint64_t next_wake(std::uint64_t guard) const;
  // Fetch is held: a mispredicted branch has not resolved, or an L1I miss
  // or the mispredict penalty blocks it (fetch_blocked_until_).
  [[nodiscard]] bool fetch_stalled() const noexcept;
  void do_commit();
  void do_writeback();
  void do_issue();
  void do_dispatch();
  void do_fetch();

  // Marks `entry` complete and wakes the consumers it was the last pending
  // producer of.
  void complete(RuuEntry& entry);
  // Claims a functional unit for a ready `entry` and starts it; false (and
  // no state change) when no unit is free this cycle.
  [[nodiscard]] bool try_issue(RuuEntry& entry);

  // Detailed ticks with fetch frozen until every in-flight instruction has
  // committed; entry point of fast_forward().
  void drain_in_flight();

  // The clock of fast_forward() and of tick()'s idle spans: moves cycle_
  // to `end`, with the fault injection draws and scrubber steps idle
  // cycles make.
  void advance_clock(std::uint64_t end);

  void verify_load(std::uint64_t addr,
                   const core::IcrCache::AccessOutcome& outcome);

  trace::TraceSource& source_;
  core::IcrCache& dl1_;
  mem::MemoryHierarchy& hierarchy_;
  fault::FaultInjector* injector_;

  BranchPredictor predictor_;
  FunctionalUnits fus_;
  Window window_;

  // Scheduler sets of window slots (Window::bit). ready_: dispatched,
  // unissued entries with every operand available. in_flight_: issued, not
  // yet completed; the earliest complete_cycle among them is next_complete_
  // (~0 when none).
  std::uint64_t ready_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t next_complete_ = ~std::uint64_t{0};

  std::uint64_t cycle_ = 0;
  std::uint64_t functional_cycles_ = 0;  // fast_forward() after its drain
  bool fetch_frozen_ = false;  // drain_in_flight(): no new source reads
  bool held_ = false;  // the tail slot holds an instruction an L1I miss stalled
  std::uint64_t fetch_blocked_until_ = 0;   // icache miss / mispredict bubble
  std::uint64_t mispredict_wait_seq_ = 0;   // branch fetch waits on
  std::uint64_t commit_blocked_until_ = 0;  // write-buffer stalls
  std::uint64_t current_fetch_block_ = ~std::uint64_t{0};

  // Architectural register file map: last writer's sequence number (0=none).
  std::uint64_t reg_writer_[trace::Instruction::kNumRegs] = {};

  // Architectural memory truth for end-to-end verification.
  WordMap golden_;

  PipelineStats stats_;
};

}  // namespace icr::cpu
