#include "src/rel/rel_tracker.h"

#include <algorithm>

namespace icr::rel {

namespace {
// Below this the mass is floating-point dust; dropping it keeps the pending
// map from accumulating dead entries over long runs.
constexpr double kMassEpsilon = 1e-300;
}  // namespace

RelTracker::RelTracker(const Config& config) : config_(config) {
  if (config_.words_per_line == 0) config_.words_per_line = 1;
}

void RelTracker::advance(std::uint64_t cycle) noexcept {
  if (cycle > a_cycle_) {
    if (valid_lines_ > 0) {
      a_ += static_cast<double>(cycle - a_cycle_) /
            static_cast<double>(valid_lines_);
    }
    a_cycle_ = cycle;
  }
}

std::size_t RelTracker::state_index(const Line& line) const noexcept {
  if (line.replica_count > 0) {
    return static_cast<std::size_t>(line.dirty ? RelState::kReplicatedDirty
                                               : RelState::kReplicatedClean);
  }
  if (config_.scheme_parity) {
    return static_cast<std::size_t>(line.dirty ? RelState::kParityDirty
                                               : RelState::kParityClean);
  }
  return static_cast<std::size_t>(line.dirty ? RelState::kEccDirty
                                             : RelState::kEccClean);
}

void RelTracker::flush_word(Line& line, Word& word, std::uint64_t cycle) {
  advance(cycle);
  const std::size_t s = state_index(line);
  const double exposure =
      (a_ - word.mark_a) / static_cast<double>(config_.words_per_line);
  const double dt = static_cast<double>(cycle - word.mark_cycle);
  word.seg_cycles[s] += dt;
  word.seg_exposure[s] += exposure;
  state_cycles_[s] += dt;
  state_exposure_[s] += exposure;
  word_cycles_ += dt;
  total_exposure_ += exposure;
  if (line.replica_count > 0) {
    word.e_cov += exposure;
  } else {
    word.e_unc += exposure;
  }
  word.mark_a = a_;
  word.mark_cycle = cycle;
}

void RelTracker::flush_line(Line& line, std::uint64_t cycle) {
  for (Word& word : line.words) flush_word(line, word, cycle);
}

void RelTracker::close_interval(Line& line, Word& word, IntervalEnd end,
                                std::uint64_t cycle,
                                IntervalStart next_start) {
  flush_word(line, word, cycle);
  const std::size_t si = static_cast<std::size_t>(word.start);
  const std::size_t ei = static_cast<std::size_t>(end);
  for (std::size_t s = 0; s < kRelStates; ++s) {
    if (word.seg_cycles[s] != 0.0 || word.seg_exposure[s] != 0.0) {
      cells_[si][ei][s].cycles += word.seg_cycles[s];
      cells_[si][ei][s].exposure += word.seg_exposure[s];
      word.seg_cycles[s] = 0.0;
      word.seg_exposure[s] = 0.0;
    }
  }
  ++cells_[si][ei][state_index(line)].count;
  word.start = next_start;
}

void RelTracker::resync_dirty(Line& line, bool dirty, std::uint64_t cycle) {
  if (line.dirty != dirty) {
    flush_line(line, cycle);
    line.dirty = dirty;
  }
}

double RelTracker::pending_mass(std::uint64_t word_addr) const {
  const auto it = pending_.find(word_addr);
  return it == pending_.end() ? 0.0 : it->second;
}

void RelTracker::set_pending(std::uint64_t word_addr, double mass) {
  if (mass > kMassEpsilon) {
    pending_[word_addr] = mass;
  } else {
    pending_.erase(word_addr);
  }
}

void RelTracker::on_fill(std::uint64_t block, std::uint32_t replica_count,
                         std::uint64_t cycle) {
  advance(cycle);
  Line& line = lines_[block];
  line.replica_count = replica_count;
  line.dirty = false;
  line.words.assign(config_.words_per_line, Word{});
  for (std::uint32_t w = 0; w < config_.words_per_line; ++w) {
    Word& word = line.words[w];
    word.mark_a = a_;
    word.mark_cycle = cycle;
    // A fill copies the backing word verbatim: mass laundered into L2 by an
    // earlier dirty eviction comes back as a standing wrong value. The
    // pending entry survives — the backing store stays corrupted until a
    // write-back or write-through overwrites it.
    word.c = pending_mass(block + 8ull * w);
  }
  ++valid_lines_;
}

void RelTracker::on_evict(std::uint64_t block, bool dirty,
                          std::uint64_t cycle) {
  const auto it = lines_.find(block);
  if (it == lines_.end()) return;
  Line& line = it->second;
  resync_dirty(line, dirty, cycle);
  const IntervalEnd end =
      dirty ? IntervalEnd::kEvictDirty : IntervalEnd::kEvictClean;
  for (std::uint32_t w = 0; w < config_.words_per_line; ++w) {
    Word& word = line.words[w];
    close_interval(line, word, end, cycle, IntervalStart::kFill);
    const double e = word.e_cov + word.e_unc;
    if (dirty) {
      // The write-back stores the line's bits unverified: both the standing
      // wrong-value mass and any unconsumed strike mass land in L2,
      // replacing whatever corruption the backing word held before.
      deposited_coef_ += e;
      set_pending(block + 8ull * w, word.c + e);
    } else {
      unobserved_coef_ += e;
    }
  }
  advance(cycle);
  if (valid_lines_ > 0) --valid_lines_;
  lines_.erase(it);
}

void RelTracker::on_replica_create(std::uint64_t block, std::uint64_t cycle) {
  advance(cycle);
  const auto it = lines_.find(block);
  if (it != lines_.end()) {
    Line& line = it->second;
    // State changes parity -> replicated: close the accrual segment first so
    // the exposure lands in the pre-replication state. Existing e_unc stays
    // uncovered — the new replica copies the (possibly corrupted) data and
    // its stale parity, so it can never supply a clean copy of a word that
    // was struck before replication.
    if (line.replica_count == 0) flush_line(line, cycle);
    ++line.replica_count;
  }
  ++valid_lines_;
}

void RelTracker::on_replica_evict(std::uint64_t block, std::uint64_t cycle) {
  advance(cycle);
  const auto it = lines_.find(block);
  if (it != lines_.end()) {
    Line& line = it->second;
    if (line.replica_count > 0) {
      if (line.replica_count == 1) {
        // Losing the last replica ends coverage: accrual so far happened
        // under the replicated state (flush before the downgrade), and the
        // covered mass becomes uncovered — a later parity failure will find
        // no replica to recover from.
        flush_line(line, cycle);
        for (Word& word : line.words) {
          word.e_unc += word.e_cov;
          word.e_cov = 0.0;
        }
      }
      --line.replica_count;
    }
  }
  if (valid_lines_ > 0) --valid_lines_;
}

void RelTracker::on_read(std::uint64_t block, std::uint32_t word_index,
                         bool dirty, bool parity_regime, std::uint64_t cycle) {
  const auto it = lines_.find(block);
  if (it == lines_.end() || word_index >= config_.words_per_line) return;
  Line& line = it->second;
  resync_dirty(line, dirty, cycle);
  Word& word = line.words[word_index];
  close_interval(line, word, IntervalEnd::kRead, cycle, IntervalStart::kRead);
  // A standing wrong value passes verification and is delivered: one silent
  // verdict on every consuming load (matching the injector's counter).
  silent_coef_ += word.c;
  if (parity_regime) {
    replica_coef_ += word.e_cov;
    if (dirty) {
      // Parity detects, no replica covers, the line is dirty: the recovery
      // ladder refreshes protection over the corrupt value, which becomes
      // architectural — all later reads of it are silent.
      detected_coef_ += word.e_unc;
      word.c += word.e_unc;
    } else {
      corrected_coef_ += word.e_unc;  // clean refetch from L2
    }
  } else {
    corrected_coef_ += word.e_cov + word.e_unc;  // SEC-DED single-bit fix
  }
  word.e_cov = 0.0;
  word.e_unc = 0.0;
}

void RelTracker::on_write(std::uint64_t block, std::uint32_t word_index,
                          bool dirty_after, std::uint64_t cycle) {
  const auto it = lines_.find(block);
  if (it == lines_.end() || word_index >= config_.words_per_line) return;
  Line& line = it->second;
  resync_dirty(line, dirty_after, cycle);
  Word& word = line.words[word_index];
  close_interval(line, word, IntervalEnd::kOverwrite, cycle,
                 IntervalStart::kWrite);
  // The store rewrites the word with a known-good value and fresh
  // protection; all accumulated mass on this word dies here, never observed
  // by any check.
  unobserved_coef_ += word.e_cov + word.e_unc;
  word.c = 0.0;
  word.e_cov = 0.0;
  word.e_unc = 0.0;
  if (config_.write_through) set_pending(block + 8ull * word_index, 0.0);
}

void RelTracker::on_repair_word(std::uint64_t block, std::uint32_t word_index,
                                std::uint64_t cycle) {
  const auto it = lines_.find(block);
  if (it == lines_.end() || word_index >= config_.words_per_line) return;
  Line& line = it->second;
  Word& word = line.words[word_index];
  close_interval(line, word, IntervalEnd::kRefresh, cycle,
                 IntervalStart::kWrite);
  // Recovery rewrote the word with a verified value; like a scrub pass it
  // cleanses accumulated strike mass without a load-visible verdict.
  scrub_coef_ += word.e_cov + word.e_unc;
  word.c = 0.0;
  word.e_cov = 0.0;
  word.e_unc = 0.0;
}

void RelTracker::on_refetch(std::uint64_t block, std::uint64_t cycle) {
  const auto it = lines_.find(block);
  if (it == lines_.end()) return;
  Line& line = it->second;
  resync_dirty(line, false, cycle);  // refetch only happens on clean lines
  for (std::uint32_t w = 0; w < config_.words_per_line; ++w) {
    Word& word = line.words[w];
    close_interval(line, word, IntervalEnd::kRefresh, cycle,
                   IntervalStart::kFill);
    scrub_coef_ += word.e_cov + word.e_unc;
    word.e_cov = 0.0;
    word.e_unc = 0.0;
    word.c = pending_mass(block + 8ull * w);
  }
}

void RelTracker::on_scrub_visit(std::uint64_t block, bool dirty,
                                bool parity_regime, std::uint64_t cycle) {
  const auto it = lines_.find(block);
  if (it == lines_.end()) return;
  Line& line = it->second;
  resync_dirty(line, dirty, cycle);
  flush_line(line, cycle);
  for (Word& word : line.words) {
    if (!parity_regime) {
      // SEC-DED scrub corrects any single-bit error in place.
      scrub_coef_ += word.e_cov + word.e_unc;
      word.e_cov = 0.0;
      word.e_unc = 0.0;
    } else if (!dirty) {
      // Parity scrub on a clean line: replica repair or refetch, either way
      // the strike mass is cleansed before a load can consume it.
      scrub_coef_ += word.e_cov + word.e_unc;
      word.e_cov = 0.0;
      word.e_unc = 0.0;
    } else {
      // Dirty parity line: only replica-covered mass is repairable; an
      // uncovered strike stays pending until the next load detects it.
      scrub_coef_ += word.e_cov;
      word.e_cov = 0.0;
    }
  }
}

RelReport RelTracker::report(std::uint64_t end_cycle) const {
  RelTracker copy(*this);
  return copy.finalize(end_cycle);
}

RelReport RelTracker::finalize(std::uint64_t end_cycle) {
  RelReport report;
  advance(end_cycle);

  // Fold the residents in sorted address order so the floating-point sums
  // are independent of unordered_map iteration order (and thread count).
  std::vector<std::uint64_t> blocks;
  blocks.reserve(lines_.size());
  for (const auto& [block, line] : lines_) blocks.push_back(block);
  std::sort(blocks.begin(), blocks.end());
  for (const std::uint64_t block : blocks) {
    Line& line = lines_[block];
    flush_line(line, end_cycle);
    for (Word& word : line.words) {
      report.open_exposure += word.e_cov + word.e_unc;
      // Open intervals stay out of the interval table (no closing event),
      // but their accrual is already in the state/total aggregates.
    }
  }

  std::vector<std::uint64_t> pending_keys;
  pending_keys.reserve(pending_.size());
  for (const auto& [addr, mass] : pending_) pending_keys.push_back(addr);
  std::sort(pending_keys.begin(), pending_keys.end());
  for (const std::uint64_t addr : pending_keys) {
    report.pending_residual += pending_[addr];
  }

  report.model_supported = config_.model_supported;
  report.cycles = end_cycle;
  report.clock_ghz = config_.clock_ghz;
  report.probability = config_.probability;
  report.word_cycles = word_cycles_;
  report.total_exposure = total_exposure_;
  for (std::size_t s = 0; s < kRelStates; ++s) {
    report.state_cycles[s] = state_cycles_[s];
    report.state_exposure[s] = state_exposure_[s];
  }
  report.corrected_coef = corrected_coef_;
  report.replica_coef = replica_coef_;
  report.detected_coef = detected_coef_;
  report.silent_coef = silent_coef_;
  report.scrub_coef = scrub_coef_;
  report.unobserved_coef = unobserved_coef_;
  report.deposited_coef = deposited_coef_;

  for (std::size_t si = 0; si < kIntervalStarts; ++si) {
    for (std::size_t ei = 0; ei < kIntervalEnds; ++ei) {
      for (std::size_t s = 0; s < kRelStates; ++s) {
        const ClassCell& cell = cells_[si][ei][s];
        if (cell.count == 0 && cell.cycles == 0.0 && cell.exposure == 0.0) {
          continue;
        }
        IntervalClassRow row;
        row.start = static_cast<IntervalStart>(si);
        row.end = static_cast<IntervalEnd>(ei);
        row.state = static_cast<RelState>(s);
        row.count = cell.count;
        row.cycles = cell.cycles;
        row.exposure = cell.exposure;
        report.intervals.push_back(row);
      }
    }
  }
  return report;
}

}  // namespace icr::rel
