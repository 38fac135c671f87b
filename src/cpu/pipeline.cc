#include "src/cpu/pipeline.h"

#include <algorithm>
#include <bit>

#include "src/obs/prof.h"
#include "src/util/check.h"

namespace icr::cpu {

Pipeline::Pipeline(PipelineConfig config, trace::TraceSource& source,
                   core::IcrCache& dl1, mem::MemoryHierarchy& hierarchy,
                   fault::FaultInjector* injector)
    : config_(config),
      source_(source),
      dl1_(dl1),
      hierarchy_(hierarchy),
      injector_(injector),
      predictor_(config.branch),
      fus_(config.fus),
      window_(config.ruu_size, config.lsq_size, config.fetch_queue_size) {}

void Pipeline::verify_load(std::uint64_t addr,
                           const core::IcrCache::AccessOutcome& outcome) {
  const std::uint64_t word = addr & ~std::uint64_t{7};
  const std::uint64_t* truth = golden_.find(word);
  const std::uint64_t expected =
      truth != nullptr ? *truth : mem::BackingStore::initial_word(word);
  // The load path is where an injected fault becomes a consequence, so the
  // per-outcome verdict is classified here and reported to the injector
  // (per-outcome FaultStats + kFaultVerdict trace events share this one
  // classification, keeping them consistent by construction).
  using Recovery = core::IcrCache::AccessOutcome::Recovery;
  if (outcome.unrecoverable) {
    ++stats_.unrecoverable_loads;
    if (injector_ != nullptr) {
      injector_->record_outcome(obs::FaultVerdict::kDetectedUncorrectable,
                                cycle_, word);
    }
  } else if (outcome.value != expected) {
    ++stats_.silent_corrupt_loads;
    if (injector_ != nullptr) {
      injector_->record_outcome(obs::FaultVerdict::kSilent, cycle_, word);
    }
  } else if (outcome.error_detected && outcome.error_recovered &&
             injector_ != nullptr) {
    injector_->record_outcome(outcome.recovery == Recovery::kReplica
                                  ? obs::FaultVerdict::kReplicaRecovered
                                  : obs::FaultVerdict::kCorrected,
                              cycle_, word);
  }
}

void Pipeline::attach_observability(obs::StatRegistry* registry) {
  if (registry == nullptr) return;
  registry->register_counter("pipeline.committed", &stats_.committed);
  registry->register_counter("pipeline.loads", &stats_.loads);
  registry->register_counter("pipeline.stores", &stats_.stores);
  registry->register_counter("pipeline.branches", &stats_.branches);
  registry->register_counter("pipeline.mispredicted_branches",
                             &stats_.mispredicted_branches);
  registry->register_counter("pipeline.forwarded_loads",
                             &stats_.forwarded_loads);
  registry->register_counter("pipeline.fetch_stall_cycles",
                             &stats_.fetch_stall_cycles);
  registry->register_counter("pipeline.silent_corrupt_loads",
                             &stats_.silent_corrupt_loads);
  registry->register_counter("pipeline.unrecoverable_loads",
                             &stats_.unrecoverable_loads);
}

bool Pipeline::fetch_stalled() const noexcept {
  return mispredict_wait_seq_ != 0 || cycle_ < fetch_blocked_until_;
}

std::uint64_t Pipeline::next_wake(std::uint64_t guard) const {
  // Any stage that can act now makes this cycle busy.
  const bool commit_blocked = cycle_ < commit_blocked_until_;
  if (!commit_blocked && !window_.ruu_empty() &&
      window_.slot(window_.head()).completed) {
    return cycle_;  // commit
  }
  if (cycle_ >= next_complete_) return cycle_;  // writeback
  if (ready_ != 0) return cycle_;               // issue
  if (!window_.fq_empty() && !window_.ruu_full() &&
      !(window_.slot(window_.dispatched()).instr.is_mem() &&
        window_.lsq_full())) {
    return cycle_;  // dispatch
  }
  if (!fetch_stalled() && !window_.fq_full() && (!fetch_frozen_ || held_)) {
    return cycle_;  // fetch
  }
  // All five are stuck until the earliest of their own deadlines. A
  // mispredict wait ends at a completion, not at fetch_blocked_until_.
  std::uint64_t wake = std::min(next_complete_, guard);
  if (commit_blocked) wake = std::min(wake, commit_blocked_until_);
  if (mispredict_wait_seq_ == 0 && cycle_ < fetch_blocked_until_) {
    wake = std::min(wake, fetch_blocked_until_);
  }
  return wake;
}

void Pipeline::tick(std::uint64_t guard) {
  // An idle cycle only counts a fetch stall (when fetch is stalled, not
  // merely full) and makes the per-cycle injector draw and scrubber step,
  // so a whole idle span is one advance_clock. Skipping here, before the
  // stages, never runs past the last commit of run().
  const std::uint64_t wake = next_wake(guard);
  if (wake > cycle_) {
    if (fetch_stalled()) stats_.fetch_stall_cycles += wake - cycle_;
    advance_clock(wake);
  }
  // One FaultInjector::tick and one scrubber step per cycle: the injector
  // draws from its RNG every cycle.
  do_commit();
  do_writeback();
  do_issue();
  do_dispatch();
  do_fetch();
  if (injector_ != nullptr) injector_->tick(dl1_, cycle_);
  dl1_.advance_scrubber(cycle_);
  ++cycle_;
}

void Pipeline::do_commit() {
  if (cycle_ < commit_blocked_until_) return;
  for (std::uint32_t n = 0;
       n < config_.commit_width && !window_.ruu_empty(); ++n) {
    const RuuEntry& head = window_.slot(window_.head());
    if (!head.completed) break;
    if (head.instr.is_store()) {
      const auto outcome =
          dl1_.store(head.instr.mem_addr, head.instr.store_value, cycle_);
      golden_.set(head.instr.mem_addr & ~std::uint64_t{7},
                  head.instr.store_value);
      if (outcome.latency > 1) {
        // Write-through buffer stall: commit is blocked for the remainder.
        commit_blocked_until_ = cycle_ + outcome.latency - 1;
      }
      ++stats_.stores;
    } else if (head.instr.is_load()) {
      ++stats_.loads;
    } else if (head.instr.is_branch()) {
      ++stats_.branches;
    }
    ++stats_.committed;
    window_.commit();
    if (cycle_ < commit_blocked_until_) return;  // stalled mid-group
  }
}

void Pipeline::complete(RuuEntry& entry) {
  entry.completed = true;
  if (entry.mispredicted && mispredict_wait_seq_ == entry.seq) {
    // The branch resolved; fetch restarts after the fixed redirect penalty
    // (paper Table 1: 3 cycles).
    fetch_blocked_until_ =
        std::max(fetch_blocked_until_, cycle_ + config_.mispredict_penalty);
    mispredict_wait_seq_ = 0;
  }
  // Consumers are younger and cannot commit before this entry, so every
  // link resolves.
  for (std::uint64_t link = entry.first_consumer; link != 0;) {
    RuuEntry& consumer = *window_.find(link >> 1);
    link = consumer.next_consumer[link & 1];
    if (--consumer.pending == 0) ready_ |= window_.bit(consumer.seq);
  }
}

void Pipeline::do_writeback() {
  if (cycle_ < next_complete_) return;
  next_complete_ = ~std::uint64_t{0};
  // Slot order, not age order, is safe: complete() only sets ready bits,
  // takes a max for the fetch block and matches the one mispredict seq
  // fetch waits on, so the completions of one cycle commute.
  for (std::uint64_t left = in_flight_; left != 0; left &= left - 1) {
    RuuEntry& e = window_.slot(std::countr_zero(left));
    if (e.complete_cycle <= cycle_) {
      complete(e);
      in_flight_ ^= window_.bit(e.seq);
    } else {
      next_complete_ = std::min(next_complete_, e.complete_cycle);
    }
  }
}

bool Pipeline::try_issue(RuuEntry& e) {
  // Store-to-load forwarding from the LSQ beats the cache.
  const bool forwarded = e.instr.is_load() &&
                         window_.forward(e.seq, e.instr.mem_addr) != nullptr;
  std::uint32_t latency = 0;
  if (!fus_.try_issue(e.instr.op, cycle_, latency)) return false;
  if (forwarded) {
    latency = 1;
    ++stats_.forwarded_loads;
  } else if (e.instr.is_load()) {
    const auto outcome = dl1_.load(e.instr.mem_addr, cycle_);
    verify_load(e.instr.mem_addr, outcome);
    if (outcome.hit && outcome.latency > 1) {
      // Multi-cycle hit (ECC check / parallel replica compare): the check
      // pipeline occupies the port, a bandwidth cost on top of the latency
      // cost.
      fus_.extend_mem_port(cycle_, outcome.latency);
    }
    latency = outcome.latency;
  } else if (e.instr.is_store()) {
    latency = 1;  // address generation; the write happens at commit
  }
  e.complete_cycle = cycle_ + std::max<std::uint32_t>(1, latency);
  in_flight_ |= window_.bit(e.seq);
  next_complete_ = std::min(next_complete_, e.complete_cycle);
  return true;
}

void Pipeline::do_issue() {
  // Oldest first; an entry whose unit is busy stays ready and younger ones
  // still get their chance.
  std::uint32_t issued = 0;
  for (std::uint64_t age = window_.by_age(ready_);
       age != 0 && issued < config_.issue_width; age &= age - 1) {
    const std::uint64_t seq = window_.head() + std::countr_zero(age);
    if (try_issue(window_.slot(seq))) {
      ready_ ^= window_.bit(seq);
      ++issued;
    }
  }
}

void Pipeline::do_dispatch() {
  for (std::uint32_t n = 0;
       n < config_.decode_width && !window_.fq_empty(); ++n) {
    if (window_.ruu_full()) break;
    if (window_.slot(window_.dispatched()).instr.is_mem() &&
        window_.lsq_full()) {
      break;
    }

    RuuEntry& e = window_.dispatch();
    const std::int16_t srcs[2] = {e.instr.src1, e.instr.src2};
    for (std::uint64_t k = 0; k < 2; ++k) {
      if (srcs[k] < 0) continue;
      // A committed (absent) or completed producer's value is available;
      // otherwise wait on the producer's wakeup list.
      RuuEntry* producer = window_.find(reg_writer_[srcs[k]]);
      if (producer == nullptr || producer->completed) continue;
      e.next_consumer[k] = producer->first_consumer;
      producer->first_consumer = e.seq << 1 | k;
      ++e.pending;
    }
    if (e.pending == 0) ready_ |= window_.bit(e.seq);
    if (e.instr.dest >= 0) reg_writer_[e.instr.dest] = e.seq;
  }
}

void Pipeline::do_fetch() {
  if (fetch_stalled()) {
    ++stats_.fetch_stall_cycles;
    return;
  }
  for (std::uint32_t n = 0; n < config_.fetch_width; ++n) {
    if (window_.fq_full()) break;
    // Draining for fast_forward(): flush the held instruction, if any, but
    // never pull a new one off the source.
    if (fetch_frozen_ && !held_) break;

    RuuEntry& e = window_.fetch_slot();
    if (!held_) e.instr = source_.next();
    held_ = false;
    const trace::Instruction& instr = e.instr;

    // Instruction-cache access when crossing into a new fetch block.
    const std::uint64_t block =
        hierarchy_.l1i().geometry().block_address(instr.pc);
    if (block != current_fetch_block_) {
      const std::uint32_t latency = hierarchy_.ifetch(instr.pc, cycle_);
      current_fetch_block_ = block;
      if (latency > hierarchy_.config().l1i_latency) {
        // Miss: hold this instruction and stall fetch for the full latency.
        held_ = true;
        fetch_blocked_until_ = cycle_ + latency;
        break;
      }
    }

    e.mispredicted = instr.is_branch() &&
                     predictor_.predict_and_update(instr.pc, instr.branch_taken,
                                                   instr.next_pc);
    window_.push();
    if (e.mispredicted) {
      ++stats_.mispredicted_branches;
      mispredict_wait_seq_ = e.seq;
      break;  // wrong-path bubble until the branch resolves
    }
    if (instr.is_branch() && instr.branch_taken) {
      break;  // redirect: stop fetching this cycle
    }
  }
}

const PipelineStats& Pipeline::run(std::uint64_t instruction_count,
                                   std::uint64_t max_cycles) {
  if (max_cycles == 0) {
    max_cycles = cycle_ + 10000 * std::max<std::uint64_t>(1, instruction_count);
  }
  ICR_PROF_ZONE("Pipeline::run");
  const std::uint64_t target = stats_.committed + instruction_count;
  while (stats_.committed < target) {
    ICR_CHECK(cycle_ < max_cycles);  // model deadlock guard
    tick(max_cycles);
  }
  stats_.cycles = cycle_;
  return stats_;
}

void Pipeline::drain_in_flight() {
  // Bounded: the in-flight population (fetch queue + RUU + one held
  // fetch) is fixed and fetch is frozen, so every tick makes progress.
  const std::uint64_t guard = cycle_ + 1000000;
  fetch_frozen_ = true;
  while (!window_.empty() || held_) {
    ICR_CHECK(cycle_ < guard);  // model deadlock guard
    tick(guard);
  }
  fetch_frozen_ = false;
}

void Pipeline::advance_clock(std::uint64_t end) {
  // Cycle order; within a cycle the injection precedes the scrubber step,
  // as in tick()'s busy cycles.
  while (cycle_ < end) {
    const std::uint64_t injection =
        injector_ != nullptr ? injector_->next_injection(cycle_, end) : end;
    while (dl1_.next_scrub_cycle() < injection) {
      dl1_.advance_scrubber(dl1_.next_scrub_cycle());
    }
    if (injection == end) break;
    injector_->inject_once(dl1_, injection);
    dl1_.advance_scrubber(injection);
    cycle_ = injection + 1;
  }
  cycle_ = end;
}

const PipelineStats& Pipeline::fast_forward(std::uint64_t instruction_count) {
  ICR_PROF_ZONE("Pipeline::fast_forward");
  const std::uint64_t target = stats_.committed + instruction_count;
  drain_in_flight();

  // Fixed-point (q16) cycles-per-instruction estimate from the detailed
  // portion so far; exact integer arithmetic keeps the functional clock
  // deterministic. Cold start (nothing measured yet) assumes CPI 1.0.
  const std::uint64_t one = std::uint64_t{1} << 16;
  const std::uint64_t cpi_q16 =
      stats_.committed > 0 && cycle_ > 0
          ? std::max<std::uint64_t>(1, (cycle_ << 16) / stats_.committed)
          : one;

  const std::uint64_t start = cycle_;
  std::uint64_t frac_q16 = 0;
  while (stats_.committed < target) {
    const trace::Instruction instr = source_.next();

    // Keep the instruction-fetch path warm: one L1I access per new block.
    const std::uint64_t block =
        hierarchy_.l1i().geometry().block_address(instr.pc);
    if (block != current_fetch_block_) {
      (void)hierarchy_.ifetch(instr.pc, cycle_);
      current_fetch_block_ = block;
    }

    if (instr.is_branch()) {
      ++stats_.branches;
      if (predictor_.predict_and_update(instr.pc, instr.branch_taken,
                                        instr.next_pc)) {
        ++stats_.mispredicted_branches;
      }
    } else if (instr.is_load()) {
      const auto outcome = dl1_.load(instr.mem_addr, cycle_);
      verify_load(instr.mem_addr, outcome);
      ++stats_.loads;
    } else if (instr.is_store()) {
      (void)dl1_.store(instr.mem_addr, instr.store_value, cycle_);
      golden_.set(instr.mem_addr & ~std::uint64_t{7}, instr.store_value);
      ++stats_.stores;
    }
    ++stats_.committed;

    // Advance the functional clock. Decay windows follow through the
    // load/store timestamps; fault injection and scrubbing act once per
    // elapsed cycle, as in the detailed loop.
    frac_q16 += cpi_q16;
    advance_clock(cycle_ + (frac_q16 >> 16));
    frac_q16 &= one - 1;
  }
  functional_cycles_ += cycle_ - start;
  stats_.cycles = cycle_;
  return stats_;
}

}  // namespace icr::cpu
