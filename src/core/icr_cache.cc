#include "src/core/icr_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "src/coding/parity.h"
#include "src/coding/secded.h"
#include "src/rel/rel_tracker.h"
#include "src/util/check.h"

namespace icr::core {

IcrCache::IcrCache(mem::CacheGeometry geometry, Scheme scheme,
                   mem::MemoryHierarchy& next,
                   mem::WayDisableConfig way_disable)
    : geometry_(geometry),
      scheme_(std::move(scheme)),
      next_(next),
      dbp_(scheme_.decay_window),
      distances_(candidate_distances(scheme_.replication, geometry.num_sets())) {
  geometry_.validate();
  way_disable.validate(geometry_.associativity);
  if (way_disable.enabled()) {
    disabled_masks_.resize(geometry_.num_sets());
    for (std::uint32_t s = 0; s < geometry_.num_sets(); ++s) {
      disabled_masks_[s] =
          way_disable.mask_for_set(s, geometry_.associativity);
    }
  }
  lines_ = std::vector<IcrLine>(static_cast<std::size_t>(geometry_.num_sets()) *
                                geometry_.associativity);
  const std::uint32_t words = geometry_.words_per_line();
  const std::size_t stride = geometry_.line_bytes + 2 * words;
  payload_.assign((lines_.size() + 1) * stride, 0);
  const auto place = [&](IcrLine& line, std::size_t i) {
    std::uint8_t* bytes = payload_.data() + i * stride;
    line.data.bytes_ = bytes;
    line.parity.bytes_ = bytes + geometry_.line_bytes;
    line.ecc.bytes_ = bytes + geometry_.line_bytes + words;
  };
  for (std::size_t i = 0; i < lines_.size(); ++i) place(lines_[i], i);
  place(orphan_stage_, lines_.size());
  if (scheme_.write_policy == WritePolicy::kWriteThrough) {
    write_buffer_ = std::make_unique<mem::WriteBuffer>(
        kWriteBufferEntries, next_.config().l2_latency);
  }
}

const IcrLine& IcrCache::line(std::uint32_t set,
                              std::uint32_t way) const noexcept {
  return set_base(set)[way];
}

IcrLine* IcrCache::find_primary(std::uint64_t block) noexcept {
  // Which way hits is data-dependent, so gather the matches of up to 64
  // ways into a mask rather than branch per way. A block has at most one
  // primary.
  IcrLine* base = set_base(geometry_.set_index(block));
  const std::uint32_t ways = geometry_.associativity;
  for (std::uint32_t first = 0; first < ways; first += 64) {
    const std::uint32_t end = std::min(ways, first + 64);
    std::uint64_t match = 0;
    for (std::uint32_t w = first; w < end; ++w) {
      const bool hit =
          base[w].valid & !base[w].replica & (base[w].block_addr == block);
      match |= static_cast<std::uint64_t>(hit) << (w - first);
    }
    if (match != 0) return &base[first + std::countr_zero(match)];
  }
  return nullptr;
}

IcrCache::ReplicaList IcrCache::find_replicas(std::uint64_t block) {
  ReplicaList result;
  const std::uint32_t home = geometry_.set_index(block);
  for (std::uint32_t d : distances_) {
    const std::uint32_t set = geometry_.wrap_set(home + d);
    IcrLine* base = set_base(set);
    for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
      if (base[w].valid && base[w].replica && base[w].block_addr == block) {
        result.push_back(&base[w]);
      }
    }
  }
  return result;
}

std::uint64_t IcrCache::read_word(const IcrLine& line,
                                  std::uint32_t word_index) const {
  std::uint64_t value = 0;
  std::memcpy(&value, line.data.data() + word_index * 8, 8);
  return value;
}

void IcrCache::write_word(IcrLine& line, std::uint32_t word_index,
                          std::uint64_t value) {
  std::memcpy(line.data.data() + word_index * 8, &value, 8);
  refresh_protection(line, word_index);
}

void IcrCache::refresh_protection(IcrLine& line, std::uint32_t word_index) {
  const std::uint64_t word = read_word(line, word_index);
  line.parity[word_index] = byte_parity(word);
  // Only an ECC scheme ever decodes the check bits (DESIGN.md, "Check
  // bits"). ICR-ECC encodes eagerly even while a line is replicated: the
  // line is back under ECC the moment its last replica goes.
  if (scheme_.protection == Protection::kEcc) {
    line.ecc[word_index] = secded_encode(word);
  }
}

void IcrCache::fill_from_backing(IcrLine& line, std::uint64_t block) {
  next_.backing().read_block(block, {line.data.data(), geometry_.line_bytes});
  for (std::uint32_t w = 0; w < geometry_.words_per_line(); ++w) {
    refresh_protection(line, w);
  }
}

void IcrCache::touch(IcrLine& line, std::uint64_t cycle) noexcept {
  line.last_access_cycle = cycle;
  line.lru_stamp = ++lru_clock_;
}

bool IcrCache::parity_regime(const IcrLine& line) const noexcept {
  if (scheme_.replication_enabled && line.replica_count > 0) return true;
  return scheme_.protection == Protection::kParity;
}

std::uint32_t IcrCache::load_hit_latency(const IcrLine& line) const noexcept {
  if (!scheme_.replication_enabled) {
    if (scheme_.protection == Protection::kEcc) {
      return scheme_.speculative_ecc_loads ? 1 : 2;
    }
    return 1;
  }
  if (line.replica_count > 0) {
    return scheme_.lookup == LookupMode::kParallel ? 2 : 1;
  }
  return scheme_.protection == Protection::kEcc ? 2 : 1;
}

void IcrCache::drop_replica(IcrLine& replica, std::uint64_t cycle) {
  ++stats_.replica_evictions;
  if (rel_ != nullptr) rel_->on_replica_evict(replica.block_addr, cycle);
  if (trace_ != nullptr && trace_->wants(obs::EventCategory::kEviction)) {
    trace_->emit(obs::EventKind::kReplicaEvict, cycle, replica.block_addr,
                 set_of(replica));
  }
  replica.valid = false;
  replica.replica = false;
}

void IcrCache::evict_line(IcrLine& line, std::uint64_t cycle) {
  if (!line.valid) return;
  if (line.replica) {
    drop_replica(line, cycle);
    // Detach from the primary (if it is still resident).
    if (IcrLine* primary = find_primary(line.block_addr)) {
      ICR_CHECK(primary->replica_count > 0);
      --primary->replica_count;
    }
    return;
  }
  ++stats_.evictions;
  if (rel_ != nullptr) rel_->on_evict(line.block_addr, line.dirty, cycle);
  if (line.dirty) {
    ++stats_.writebacks;
    // Deposit the line's current bits (corrupted or not) into the next level.
    next_.backing().write_block(line.block_addr,
                                {line.data.data(), geometry_.line_bytes});
    next_.write_back_block(line.block_addr, cycle);
  }
  // In leave-replica mode the replicas stay as orphans; a later fill of this
  // block re-attaches them (see install_primary()).
  if (line.replica_count > 0 && !scheme_.leave_replicas_on_eviction) {
    for (IcrLine* replica : find_replicas(line.block_addr)) {
      drop_replica(*replica, cycle);
    }
  }
  line.valid = false;
  line.dirty = false;
  line.replica_count = 0;
}

std::uint64_t IcrCache::enabled_lines() const noexcept {
  std::uint64_t total = static_cast<std::uint64_t>(geometry_.num_sets()) *
                        geometry_.associativity;
  for (std::uint32_t mask : disabled_masks_) {
    total -= static_cast<std::uint32_t>(std::popcount(mask));
  }
  return total;
}

void IcrCache::disable_way(std::uint32_t set, std::uint32_t way,
                           std::uint64_t cycle) {
  ICR_CHECK(set < geometry_.num_sets() && way < geometry_.associativity);
  const std::uint32_t all = geometry_.associativity >= 32
                                ? ~0u
                                : ((1u << geometry_.associativity) - 1u);
  const std::uint32_t mask = disabled_mask(set) | (1u << way);
  if ((mask & all) == all) {
    throw std::invalid_argument(
        "IcrCache::disable_way: last enabled way of the set");
  }
  if (disabled_masks_.empty()) disabled_masks_.resize(geometry_.num_sets());
  evict_line(set_base(set)[way], cycle);  // flush the resident line first
  disabled_masks_[set] = mask;
}

IcrLine& IcrCache::allocate_primary_slot(std::uint64_t block,
                                         std::uint64_t cycle) {
  // §3.1: primary placement is plain LRU over every enabled way — dead,
  // replica or primary alike. Disabled ways never participate.
  const std::uint32_t set = geometry_.set_index(block);
  const std::uint32_t disabled = disabled_mask(set);
  IcrLine* base = set_base(set);
  IcrLine* victim = nullptr;
  for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
    if ((disabled >> w) & 1u) continue;
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (victim == nullptr || base[w].lru_stamp < victim->lru_stamp) {
      victim = &base[w];
    }
  }
  ICR_CHECK(victim != nullptr);  // validate() keeps >= 1 way enabled per set
  evict_line(*victim, cycle);
  return *victim;
}

IcrLine& IcrCache::install_primary(std::uint64_t block, std::uint64_t cycle,
                                   const IcrLine* orphan) {
  const std::uint32_t words = geometry_.words_per_line();
  if (orphan != nullptr) {
    // Stage the orphan's bits before allocation (LRU may pick it).
    orphan_stage_.data.copy_from(orphan->data, geometry_.line_bytes);
    orphan_stage_.parity.copy_from(orphan->parity, words);
  }
  IcrLine& slot = allocate_primary_slot(block, cycle);
  slot.valid = true;
  slot.replica = false;
  slot.dirty = false;
  slot.block_addr = block;
  if (orphan == nullptr) {
    fill_from_backing(slot, block);
  } else {
    slot.data.copy_from(orphan_stage_.data, geometry_.line_bytes);
    for (std::uint32_t w = 0; w < words; ++w) refresh_protection(slot, w);
    // Keep the stale parity: corruption must stay visible.
    slot.parity.copy_from(orphan_stage_.parity, words);
  }
  slot.replica_count =
      scheme_.leave_replicas_on_eviction
          ? static_cast<std::uint8_t>(find_replicas(block).size())
          : 0;
  if (rel_ != nullptr) rel_->on_fill(block, slot.replica_count, cycle);
  return slot;
}

IcrLine* IcrCache::select_replica_victim(std::uint32_t set,
                                         std::uint64_t block,
                                         std::uint64_t cycle) {
  const std::uint32_t disabled = disabled_mask(set);
  IcrLine* base = set_base(set);
  IcrLine* invalid = nullptr;
  IcrLine* dead = nullptr;     // LRU dead primary
  IcrLine* replica = nullptr;  // LRU replica
  for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
    if ((disabled >> w) & 1u) continue;
    IcrLine& l = base[w];
    if (!l.valid) {
      if (invalid == nullptr) invalid = &l;
      continue;
    }
    if (l.block_addr == block) continue;  // never displace our own copies
    if (l.replica) {
      if (replica == nullptr || l.lru_stamp < replica->lru_stamp) replica = &l;
      continue;
    }
    // Primary: only a candidate if predicted dead. A line that carries live
    // replicas is still just a primary here; its replicas detach on eviction.
    if (dbp_.is_dead(l.last_access_cycle, cycle)) {
      if (dead == nullptr || l.lru_stamp < dead->lru_stamp) dead = &l;
    }
  }
  if (invalid != nullptr) return invalid;
  switch (scheme_.victim_policy) {
    case ReplicaVictimPolicy::kDeadOnly:
      return dead;
    case ReplicaVictimPolicy::kReplicaOnly:
      return replica;
    case ReplicaVictimPolicy::kDeadFirst:
      return dead != nullptr ? dead : replica;
    case ReplicaVictimPolicy::kReplicaFirst:
      return replica != nullptr ? replica : dead;
  }
  return nullptr;
}

void IcrCache::attempt_replication(IcrLine& primary, std::uint64_t cycle) {
  if (!scheme_.replication_enabled) return;
  std::uint32_t target = scheme_.replication.num_replicas;
  if (hints_ != nullptr) {
    if (const auto quota = hints_->quota_for(primary.block_addr)) {
      if (*quota == 0) return;  // software opted this data out entirely
      target = *quota;
    }
  }
  ++stats_.replication_opportunities;
  const std::uint32_t before = primary.replica_count;
  if (before >= target) {
    // Already fully replicated: the opportunity creates nothing new.
    return;
  }

  ++stats_.site_searches;
  const std::uint32_t home = geometry_.set_index(primary.block_addr);

  for (std::uint32_t d : distances_) {
    if (primary.replica_count >= target) break;
    const std::uint32_t set = geometry_.wrap_set(home + d);

    // An existing replica of this block in the site already counts.
    IcrLine* base = set_base(set);
    bool already_here = false;
    for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
      if (base[w].valid && base[w].replica &&
          base[w].block_addr == primary.block_addr) {
        already_here = true;
        break;
      }
    }
    if (already_here) continue;

    IcrLine* victim = select_replica_victim(set, primary.block_addr, cycle);
    if (victim == nullptr) continue;
    const bool dead_primary = victim->valid && !victim->replica;
    const bool dead_dirty = dead_primary && victim->dirty;
    const std::uint64_t displaced_block = victim->block_addr;
    const std::uint64_t idle_cycles =
        cycle - std::min(cycle, victim->last_access_cycle);
    evict_line(*victim, cycle);
    if (dead_dirty) ++stats_.dead_victim_writebacks;
    if (dead_primary && trace_ != nullptr &&
        trace_->wants(obs::EventCategory::kDecay)) {
      trace_->emit(obs::EventKind::kDeadBlockRecycle, cycle, displaced_block,
                   set, idle_cycles);
    }

    victim->valid = true;
    victim->replica = true;
    victim->dirty = false;
    victim->replica_count = 0;
    victim->block_addr = primary.block_addr;
    victim->data.copy_from(primary.data, geometry_.line_bytes);
    victim->lru_stamp = ++lru_clock_;
    victim->last_access_cycle = cycle;
    // Replicas are parity protected (§3.1); copy the primary's current
    // parity so a corrupted primary word is never laundered into a "clean"
    // replica, and its check bits with it.
    victim->parity.copy_from(primary.parity, geometry_.words_per_line());
    for (std::uint32_t w = 0; w < geometry_.words_per_line(); ++w) {
      victim->ecc[w] = primary.ecc[w];
    }

    ++primary.replica_count;
    if (rel_ != nullptr) rel_->on_replica_create(primary.block_addr, cycle);
    ++stats_.replicas_created;
    ++stats_.l1_write_accesses;  // the duplicate write
    if (trace_ != nullptr && trace_->wants(obs::EventCategory::kReplication)) {
      trace_->emit(obs::EventKind::kReplicaCreate, cycle, primary.block_addr,
                   set, d);
    }
  }

  const std::uint32_t created = primary.replica_count - before;
  if (created > 0) {
    ++stats_.replication_successes;
  } else {
    ++stats_.site_search_failures;
  }
  if (created >= 1) ++stats_.opportunities_with_one;
  if (created >= 2) ++stats_.opportunities_with_two;
  if (trace_ != nullptr && trace_->wants(obs::EventCategory::kReplication)) {
    trace_->emit(obs::EventKind::kReplicationAttempt, cycle,
                 primary.block_addr, created, target);
  }
}

IcrCache::AccessOutcome::Recovery IcrCache::repair_word(
    IcrLine& line, std::uint32_t word_index, std::uint64_t cycle,
    std::uint32_t& latency) {
  if (scheme_.replication_enabled && line.replica_count > 0) {
    for (IcrLine* replica : find_replicas(line.block_addr)) {
      const std::uint64_t word = read_word(*replica, word_index);
      ++stats_.parity_computations;
      if (parity_ok(word, replica->parity[word_index])) {
        write_word(line, word_index, word);
        return AccessOutcome::Recovery::kReplica;
      }
    }
  }
  if (line.dirty) return AccessOutcome::Recovery::kNone;
  // Clean block: refetch from deeper in the hierarchy (§3.1 [12]).
  latency += next_.fetch_block(line.block_addr, cycle);
  fill_from_backing(line, line.block_addr);
  return AccessOutcome::Recovery::kRefetch;
}

void IcrCache::verify_and_recover(IcrLine& line, std::uint32_t word_index,
                                  std::uint64_t cycle,
                                  AccessOutcome& outcome) {
  const std::uint64_t word = read_word(line, word_index);
  if (parity_regime(line)) {
    ++stats_.parity_computations;
    if (parity_ok(word, line.parity[word_index])) {
      outcome.value = word;
      return;
    }
  } else {
    // ECC regime (unreplicated line under an ECC scheme, or Base ECC).
    ++stats_.ecc_computations;
    const SecDedResult result = secded_decode(word, line.ecc[word_index]);
    if (result.status == SecDedStatus::kClean) {
      outcome.value = word;
      return;
    }
    if (result.status != SecDedStatus::kDetectedDouble) {
      ++stats_.errors_detected;
      ++stats_.errors_corrected_by_ecc;
      outcome.error_detected = true;
      outcome.error_recovered = true;
      outcome.recovery = AccessOutcome::Recovery::kEcc;
      outcome.value = result.data;
      write_word(line, word_index, result.data);
      if (rel_ != nullptr) {
        rel_->on_repair_word(line.block_addr, word_index, cycle);
      }
      return;
    }
  }
  // A parity error, or a double-bit error SEC-DED cannot correct.
  ++stats_.errors_detected;
  outcome.error_detected = true;
  if (scheme_.replication_enabled && line.replica_count > 0) {
    if (scheme_.lookup == LookupMode::kSerial) {
      outcome.latency += 1;  // the serial replica probe (§3.2)
    }
    ++stats_.l1_read_accesses;  // replica array read
  }
  outcome.recovery = repair_word(line, word_index, cycle, outcome.latency);
  if (outcome.recovery == AccessOutcome::Recovery::kReplica) {
    ++stats_.errors_corrected_by_replica;
  } else if (outcome.recovery == AccessOutcome::Recovery::kRefetch) {
    ++stats_.errors_refetched_from_l2;
  } else if (rcache_ != nullptr) {
    // Dirty with no clean replica: a Kim&Somani duplication buffer, if
    // attached, is the last line of defence before the data is lost.
    const std::uint64_t word_addr = line.block_addr + word_index * 8ULL;
    if (const auto dup = rcache_->lookup(word_addr, /*for_recovery=*/true)) {
      ++stats_.errors_corrected_by_rcache;
      outcome.latency += 1;  // the R-Cache probe
      outcome.recovery = AccessOutcome::Recovery::kRcache;
      write_word(line, word_index, *dup);
    }
  }
  if (outcome.recovery == AccessOutcome::Recovery::kNone) {
    ++stats_.unrecoverable_loads;
    outcome.unrecoverable = true;
    outcome.value = word;
    // The corrupted value is now the architectural value; commit protection
    // over it so every later load does not re-count the same strike.
    refresh_protection(line, word_index);
    return;
  }
  outcome.error_recovered = true;
  outcome.value = read_word(line, word_index);
  if (rel_ == nullptr) return;
  if (outcome.recovery == AccessOutcome::Recovery::kRefetch) {
    rel_->on_refetch(line.block_addr, cycle);
  } else {
    rel_->on_repair_word(line.block_addr, word_index, cycle);
  }
}

IcrCache::AccessOutcome IcrCache::load(std::uint64_t addr,
                                       std::uint64_t cycle) {
  AccessOutcome outcome;
  ++stats_.loads;
  ++stats_.l1_read_accesses;
  const std::uint64_t block = geometry_.block_address(addr);
  const std::uint32_t word_index = geometry_.line_offset(addr) / 8;

  IcrLine* line = find_primary(block);
  if (line != nullptr) {
    ++stats_.load_hits;
    if (scheme_.replication_enabled && line->replica_count > 0) {
      ++stats_.loads_with_replica;
    }
    outcome.hit = true;
    outcome.latency = load_hit_latency(*line);
    touch(*line, cycle);
  } else {
    ++stats_.load_misses;
    // §5.6 performance mode: a surviving (orphan) replica can service the
    // primary miss at +1 cycle instead of the L2 round trip.
    const IcrLine* orphan = nullptr;
    if (scheme_.replication_enabled && scheme_.leave_replicas_on_eviction) {
      const ReplicaList orphans = find_replicas(block);
      if (!orphans.empty()) orphan = orphans.front();
    }
    if (orphan != nullptr) {
      ++stats_.replica_fills;
      outcome.replica_fill = true;
    } else {
      // In write-through mode the miss queues behind any buffered drains
      // for the L2 port (§5.8's write-through slowdown).
      if (write_buffer_ != nullptr) {
        outcome.latency += write_buffer_->pending_drain_delay(cycle);
      }
      outcome.latency += 1 + next_.fetch_block(block, cycle);
    }
    line = &install_primary(block, cycle, orphan);
    if (orphan != nullptr) outcome.latency = load_hit_latency(*line) + 1;
    touch(*line, cycle);
    ++stats_.l1_write_accesses;
    if (scheme_.replication_enabled &&
        scheme_.trigger == ReplicateOn::kLoadsAndStores) {
      attempt_replication(*line, cycle);
    }
  }
  if (rel_ != nullptr) {
    rel_->on_read(block, word_index, line->dirty, parity_regime(*line), cycle);
  }
  verify_and_recover(*line, word_index, cycle, outcome);
  return outcome;
}

IcrCache::AccessOutcome IcrCache::store(std::uint64_t addr,
                                        std::uint64_t value,
                                        std::uint64_t cycle) {
  AccessOutcome outcome;
  ++stats_.stores;
  ++stats_.l1_write_accesses;
  const std::uint64_t block = geometry_.block_address(addr);
  const std::uint32_t word_index = geometry_.line_offset(addr) / 8;

  IcrLine* primary = find_primary(block);
  outcome.hit = primary != nullptr;
  if (primary == nullptr) {
    ++stats_.store_misses;
    // Write-allocate; the fill happens in the background (stores are
    // buffered, §3.2), so it does not lengthen the store's 1-cycle latency.
    // The fill is not a separate replication opportunity: the store itself
    // attempts below ("upon a load miss or a store", §4.1).
    next_.fetch_block(block, cycle);
    primary = &install_primary(block, cycle, nullptr);
  } else {
    ++stats_.store_hits;
  }

  touch(*primary, cycle);
  write_word(*primary, word_index, value);
  if (rcache_ != nullptr) {
    rcache_->record(addr, value);  // duplicate-on-write baseline
  }
  if (parity_regime(*primary)) {
    ++stats_.parity_computations;  // encode cost on the store path
  } else {
    ++stats_.ecc_computations;
  }

  outcome.latency = 1;

  if (scheme_.write_policy == WritePolicy::kWriteBack) {
    primary->dirty = true;
  } else {
    // Write-through: the word also travels to L2 via the coalescing buffer.
    next_.backing().write_word(addr, value);
    outcome.latency += write_buffer_->push(block, cycle);
  }
  if (rel_ != nullptr) {
    rel_->on_write(block, word_index, primary->dirty, cycle);
  }

  // Keep every replica coherent with the primary (§3.1: "updating both the
  // original and the replicas").
  if (scheme_.replication_enabled && primary->replica_count > 0) {
    for (IcrLine* replica : find_replicas(block)) {
      write_word(*replica, word_index, value);
      ++stats_.parity_computations;
      ++stats_.replica_updates;
      ++stats_.l1_write_accesses;
    }
  }

  // Both S and LS replicate at stores (§3.1 mechanism (ii)).
  if (scheme_.replication_enabled) {
    attempt_replication(*primary, cycle);
  }
  return outcome;
}

void IcrCache::advance_scrubber(std::uint64_t cycle) {
  if (scheme_.scrub_interval == 0 || cycle < next_scrub_cycle_) return;
  next_scrub_cycle_ = cycle + scheme_.scrub_interval;

  const std::uint32_t set = scrub_cursor_;
  scrub_cursor_ = (scrub_cursor_ + 1) % geometry_.num_sets();
  IcrLine* base = set_base(set);
  for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
    IcrLine& line = base[w];
    if (!line.valid || line.replica) continue;  // replicas verified via primaries
    ++stats_.scrub_lines_checked;
    ++stats_.l1_read_accesses;
    if (rel_ != nullptr) {
      rel_->on_scrub_visit(line.block_addr, line.dirty, parity_regime(line),
                           cycle);
    }
    for (std::uint32_t word = 0; word < geometry_.words_per_line(); ++word) {
      const std::uint64_t value = read_word(line, word);
      if (parity_regime(line)) {
        ++stats_.parity_computations;
        if (parity_ok(value, line.parity[word])) continue;
      } else {
        ++stats_.ecc_computations;
        const SecDedResult r = secded_decode(value, line.ecc[word]);
        if (r.status == SecDedStatus::kClean) continue;
        if (r.status != SecDedStatus::kDetectedDouble) {
          write_word(line, word, r.data);
          ++stats_.scrub_corrections;
          continue;
        }
      }
      std::uint32_t latency = 0;  // off the critical path
      if (repair_word(line, word, cycle, latency) !=
          AccessOutcome::Recovery::kNone) {
        ++stats_.scrub_corrections;
      } else {
        // Dirty with no good copy: the scrubber cannot invent the lost bits.
        // The stale check bits are left in place so a consuming load still
        // detects the error (counted once per scrub visit in this
        // statistic).
        ++stats_.scrub_uncorrectable;
      }
    }
  }
}

std::uint64_t IcrCache::resident_replicas() const noexcept {
  std::uint64_t count = 0;
  for (const IcrLine& l : lines_) {
    if (l.valid && l.replica) ++count;
  }
  return count;
}

std::vector<std::uint32_t> IcrCache::replica_occupancy() const {
  std::vector<std::uint32_t> occupancy(geometry_.num_sets(), 0);
  for (std::uint32_t s = 0; s < geometry_.num_sets(); ++s) {
    const IcrLine* base = set_base(s);
    for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
      if (base[w].valid && base[w].replica) ++occupancy[s];
    }
  }
  return occupancy;
}

void IcrCache::flip_data_bit(std::uint32_t set, std::uint32_t way,
                             std::uint32_t byte_index, std::uint32_t bit) {
  IcrLine& l = set_base(set)[way];
  ICR_CHECK(byte_index < geometry_.line_bytes && bit < 8);
  l.data[byte_index] = static_cast<std::uint8_t>(l.data[byte_index] ^
                                                 (1U << bit));
}

void IcrCache::flip_check_bit(std::uint32_t set, std::uint32_t way,
                              std::uint32_t word_index, std::uint32_t bit,
                              bool ecc_array) {
  IcrLine& l = set_base(set)[way];
  ICR_CHECK(word_index < geometry_.words_per_line() && bit < 8);
  auto& arr = ecc_array ? l.ecc : l.parity;
  arr[word_index] = static_cast<std::uint8_t>(arr[word_index] ^ (1U << bit));
}

void IcrCache::check_invariants() const {
  auto* self = const_cast<IcrCache*>(this);
  for (std::uint32_t s = 0; s < geometry_.num_sets(); ++s) {
    const IcrLine* base = set_base(s);
    for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
      const IcrLine& l = base[w];
      if (!l.valid) continue;
      // A disabled way never holds a valid line.
      ICR_CHECK(!way_disabled(s, w));
      if (l.replica) {
        ICR_CHECK(!l.dirty);
        ICR_CHECK(l.replica_count == 0);
        // A replica must sit at a candidate distance from its home set.
        const std::uint32_t home = geometry_.set_index(l.block_addr);
        bool at_candidate = false;
        for (std::uint32_t d : distances_) {
          if (geometry_.wrap_set(home + d) == s) at_candidate = true;
        }
        ICR_CHECK(at_candidate);
      } else {
        // Exactly one primary per block.
        for (std::uint32_t w2 = w + 1; w2 < geometry_.associativity; ++w2) {
          if (base[w2].valid && !base[w2].replica) {
            ICR_CHECK(base[w2].block_addr != l.block_addr);
          }
        }
        const auto replicas = self->find_replicas(l.block_addr);
        ICR_CHECK(l.replica_count == replicas.size());
      }
    }
  }
}

}  // namespace icr::core
