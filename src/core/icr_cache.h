// The ICR data L1 cache: the paper's primary contribution.
//
// A set-associative write-back (or write-through, §5.8) L1 data cache that
// keeps real 64-byte data payloads, byte-granularity parity per 64-bit word,
// and SEC-DED check bits per word; and that implements In-Cache Replication:
// blocks predicted dead by the decay counters are recycled to hold replicas
// of blocks in active use. All ten §3.2 schemes are expressed through the
// `Scheme` knobs; error detection and recovery operate on genuinely stored
// (and genuinely corruptible) bits.
//
// Latency contract (loads; stores are always 1 cycle, they are buffered):
//   Base parity hit ........................ 1 cycle
//   Base ECC hit ........................... 2 cycles (1 if speculative)
//   ICR hit, line replicated, PS lookup .... 1 cycle (parity only)
//   ICR hit, line replicated, PP lookup .... 2 cycles (parallel compare)
//   ICR hit, unreplicated line ............. 1 (P) or 2 (ECC) cycles
//   + 1 cycle when a PS parity error consults the replica
//   + L2/memory latency when recovery must refetch a clean block
// Misses add the MemoryHierarchy fetch latency; in the leave-replica
// performance mode (§5.6) a primary miss served by a surviving replica
// costs only +1 cycle instead of the L2 round trip.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/baselines/rcache.h"
#include "src/core/dead_block_predictor.h"
#include "src/core/replication_hints.h"
#include "src/core/replication_policy.h"
#include "src/core/scheme.h"
#include "src/mem/cache_geometry.h"
#include "src/mem/memory_hierarchy.h"
#include "src/mem/write_buffer.h"
#include "src/obs/event_trace.h"
#include "src/util/check.h"
#include "src/util/counter_table.h"

namespace icr::rel {
class RelTracker;
}  // namespace icr::rel

namespace icr::core {

// Bytes of one line held in its IcrCache's payload array: indexed and
// data() as on a vector. Not copyable: copy_from() copies the bytes.
class LineBytes {
 public:
  LineBytes() = default;
  LineBytes(const LineBytes&) = delete;
  LineBytes& operator=(const LineBytes&) = delete;

  [[nodiscard]] std::uint8_t* data() noexcept { return bytes_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes_; }
  [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept {
    return bytes_[i];
  }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return bytes_[i];
  }
  // Copies the first `size` bytes of `other`.
  void copy_from(const LineBytes& other, std::size_t size) noexcept {
    std::memcpy(bytes_, other.bytes_, size);
  }

 private:
  friend class IcrCache;
  std::uint8_t* bytes_ = nullptr;
};

// One dL1 line: payload, per-word protection, and ICR metadata. The three
// byte arrays of a line sit next to each other in the cache's payload
// array, so the tags of a set span few host cache lines.
struct IcrLine {
  bool valid = false;
  bool dirty = false;
  bool replica = false;          // replica copy (paper's 1-bit overhead)
  std::uint8_t replica_count = 0;  // primaries: live replicas of this block
  std::uint64_t block_addr = 0;
  std::uint64_t lru_stamp = 0;
  std::uint64_t last_access_cycle = 0;
  LineBytes data;    // line_bytes
  LineBytes parity;  // one byte-parity vector per 64-bit word
  LineBytes ecc;     // one SEC-DED check byte per 64-bit word (ECC schemes)
};

struct IcrStats {
  std::uint64_t loads = 0;
  std::uint64_t load_hits = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;

  std::uint64_t loads_with_replica = 0;  // read hits whose line had a replica
  std::uint64_t replica_fills = 0;       // misses served by orphan replicas

  // Replication-ability accounting (paper §4.1): the denominator is every
  // replication opportunity — each store (S / LS) and each load-miss fill
  // (LS only); the numerator counts opportunities that created at least one
  // new replica. A store to a block that already carries its full replica
  // complement merely refreshes the copies and is not a new replication.
  std::uint64_t replication_opportunities = 0;
  std::uint64_t replication_successes = 0;  // opportunities creating >=1 copy
  std::uint64_t opportunities_with_one = 0;  // creating >=1 new replica
  std::uint64_t opportunities_with_two = 0;  // creating >=2 new replicas
  std::uint64_t replicas_created = 0;
  // Site-level search diagnostics: searches run (block lacked a replica)
  // and searches that found no victim under the §3.1 policy.
  std::uint64_t site_searches = 0;
  std::uint64_t site_search_failures = 0;

  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t replica_evictions = 0;
  std::uint64_t dead_victim_writebacks = 0;  // dirty dead blocks displaced

  std::uint64_t errors_detected = 0;
  std::uint64_t errors_corrected_by_replica = 0;
  std::uint64_t errors_corrected_by_ecc = 0;
  std::uint64_t errors_corrected_by_rcache = 0;
  std::uint64_t errors_refetched_from_l2 = 0;
  std::uint64_t unrecoverable_loads = 0;

  // Background scrubbing (extension).
  std::uint64_t scrub_lines_checked = 0;
  std::uint64_t scrub_corrections = 0;      // repaired before any load saw it
  std::uint64_t scrub_uncorrectable = 0;    // found but unrepairable (dirty)

  std::uint64_t parity_computations = 0;
  std::uint64_t ecc_computations = 0;
  std::uint64_t replica_updates = 0;  // extra L1 writes keeping replicas fresh
  std::uint64_t l1_read_accesses = 0;
  std::uint64_t l1_write_accesses = 0;

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return loads + stores;
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return load_misses + store_misses;
  }
  [[nodiscard]] double miss_rate() const noexcept {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses()) /
                                 static_cast<double>(accesses());
  }
  [[nodiscard]] double replication_ability() const noexcept {
    return replication_opportunities == 0
               ? 0.0
               : static_cast<double>(replication_successes) /
                     static_cast<double>(replication_opportunities);
  }
  // Fraction of opportunities that created at least one (resp. two) new
  // replicas in a single event (paper Fig. 3's "ability to create just one
  // replica / to successfully create two replicas").
  [[nodiscard]] double multi_replica_fraction(bool two) const noexcept {
    const std::uint64_t num = two ? opportunities_with_two : opportunities_with_one;
    return replication_opportunities == 0
               ? 0.0
               : static_cast<double>(num) /
                     static_cast<double>(replication_opportunities);
  }
  [[nodiscard]] double loads_with_replica_fraction() const noexcept {
    return load_hits == 0 ? 0.0
                          : static_cast<double>(loads_with_replica) /
                                static_cast<double>(load_hits);
  }
  [[nodiscard]] double unrecoverable_load_fraction() const noexcept {
    return loads == 0 ? 0.0
                      : static_cast<double>(unrecoverable_loads) /
                            static_cast<double>(loads);
  }

  static constexpr util::CounterRow<IcrStats> kCounters[] = {
      {"loads", &IcrStats::loads},
      {"load_hits", &IcrStats::load_hits},
      {"load_misses", &IcrStats::load_misses},
      {"stores", &IcrStats::stores},
      {"store_hits", &IcrStats::store_hits},
      {"store_misses", &IcrStats::store_misses},
      {"loads_with_replica", &IcrStats::loads_with_replica},
      {"replica_fills", &IcrStats::replica_fills},
      {"replication.opportunities", &IcrStats::replication_opportunities},
      {"replication.successes", &IcrStats::replication_successes},
      {"replication.with_one", &IcrStats::opportunities_with_one},
      {"replication.with_two", &IcrStats::opportunities_with_two},
      {"replication.created", &IcrStats::replicas_created},
      {"replication.site_searches", &IcrStats::site_searches},
      {"replication.site_search_failures", &IcrStats::site_search_failures},
      {"evictions", &IcrStats::evictions},
      {"writebacks", &IcrStats::writebacks},
      {"replica_evictions", &IcrStats::replica_evictions},
      {"dead_victim_writebacks", &IcrStats::dead_victim_writebacks},
      {"errors.detected", &IcrStats::errors_detected},
      {"errors.corrected_by_replica", &IcrStats::errors_corrected_by_replica},
      {"errors.corrected_by_ecc", &IcrStats::errors_corrected_by_ecc},
      {"errors.corrected_by_rcache", &IcrStats::errors_corrected_by_rcache},
      {"errors.refetched_from_l2", &IcrStats::errors_refetched_from_l2},
      {"errors.unrecoverable_loads", &IcrStats::unrecoverable_loads},
      {"scrub.lines_checked", &IcrStats::scrub_lines_checked},
      {"scrub.corrections", &IcrStats::scrub_corrections},
      {"scrub.uncorrectable", &IcrStats::scrub_uncorrectable},
      {"parity_computations", &IcrStats::parity_computations},
      {"ecc_computations", &IcrStats::ecc_computations},
      {"replica_updates", &IcrStats::replica_updates},
      {"l1_read_accesses", &IcrStats::l1_read_accesses},
      {"l1_write_accesses", &IcrStats::l1_write_accesses},
  };
};
static_assert(util::table_covers<IcrStats>());

class IcrCache {
 public:
  // Entries of the write-through schemes' coalescing write buffer (§5.8).
  static constexpr std::uint32_t kWriteBufferEntries = 8;

  // `way_disable` masks faulty ways out of the array (degraded-geometry
  // mode): a disabled way is never allocated, never searched as a
  // replication site, and never holds a valid line. Default: none disabled.
  IcrCache(mem::CacheGeometry geometry, Scheme scheme,
           mem::MemoryHierarchy& next,
           mem::WayDisableConfig way_disable = {});

  struct AccessOutcome {
    // Which rung of the recovery ladder produced the delivered value (set
    // only when error_recovered is true).
    enum class Recovery : std::uint8_t {
      kNone,
      kReplica,  // clean in-cache replica
      kEcc,      // SEC-DED single-bit correction
      kRcache,   // Kim&Somani duplication buffer
      kRefetch,  // clean block refetched from L2/memory
    };

    std::uint32_t latency = 0;  // cycles this access occupies the pipeline
    bool hit = false;
    bool replica_fill = false;
    bool error_detected = false;
    bool error_recovered = false;
    bool unrecoverable = false;
    Recovery recovery = Recovery::kNone;
    std::uint64_t value = 0;  // the 64-bit word delivered (loads)
  };

  // 64-bit word load / store at `addr` (8-byte aligned) at time `cycle`.
  AccessOutcome load(std::uint64_t addr, std::uint64_t cycle);
  AccessOutcome store(std::uint64_t addr, std::uint64_t value,
                      std::uint64_t cycle);

  // Advances the background scrubber (call once per cycle; no-op unless the
  // scheme enables scrubbing and the interval elapsed). Each activation
  // verifies every word of one set and repairs what it can — from a clean
  // replica, via SEC-DED, or by refetching a clean block from L2. Dirty
  // parity-only words with no good copy are uncorrectable; their stale
  // parity is left in place so the consuming load still detects the loss.
  void advance_scrubber(std::uint64_t cycle);

  // The next cycle at which advance_scrubber() does work; ~0 when the
  // scheme does not scrub.
  [[nodiscard]] std::uint64_t next_scrub_cycle() const noexcept {
    return scheme_.scrub_interval == 0 ? ~std::uint64_t{0}
                                       : next_scrub_cycle_;
  }

  // ---- fault-injection surface ----
  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return geometry_.num_sets();
  }
  [[nodiscard]] std::uint32_t ways() const noexcept {
    return geometry_.associativity;
  }
  [[nodiscard]] const IcrLine& line(std::uint32_t set,
                                    std::uint32_t way) const noexcept;
  // Flips one stored data bit; protection bits are intentionally left stale —
  // that is exactly what a particle strike does.
  void flip_data_bit(std::uint32_t set, std::uint32_t way,
                     std::uint32_t byte_index, std::uint32_t bit);
  // Flips one stored parity or ECC bit (word-granularity check byte).
  void flip_check_bit(std::uint32_t set, std::uint32_t way,
                      std::uint32_t word_index, std::uint32_t bit,
                      bool ecc_array);

  [[nodiscard]] const IcrStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Scheme& scheme() const noexcept { return scheme_; }
  [[nodiscard]] const mem::CacheGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] const DeadBlockPredictor& dead_block_predictor()
      const noexcept {
    return dbp_;
  }
  [[nodiscard]] const mem::WriteBuffer* write_buffer() const noexcept {
    return write_buffer_.get();
  }

  // Attaches a Kim&Somani-style duplication buffer (baselines::RCache):
  // every store is duplicated into it, and a load whose dirty word neither
  // a clean replica nor SEC-DED can repair consults it before declaring the
  // word lost (the scrubber never does). Pass nullptr to detach. Used by
  // the baseline-comparison bench.
  void attach_rcache(baselines::RCache* rcache) noexcept {
    rcache_ = rcache;
  }

  // Software-directed replication control (§6 future work): per-address-
  // range replica quotas. Pass nullptr to clear. A block covered by a
  // quota-0 range is never replicated (and such events are not counted as
  // replication opportunities — the software opted the data out).
  void set_replication_hints(const ReplicationHints* hints) noexcept {
    hints_ = hints;
  }

  // Number of valid replica lines currently resident (O(cache) scan).
  [[nodiscard]] std::uint64_t resident_replicas() const noexcept;

  // Per-set resident replica counts (heatmap row; O(cache) scan).
  [[nodiscard]] std::vector<std::uint32_t> replica_occupancy() const;

  // Starts emitting replication / eviction / decay events into `trace`,
  // which may be null and must outlive the cache. Emission is behind a null
  // check, so the hot paths are untouched when detached.
  void attach_observability(obs::EventTrace* trace) noexcept { trace_ = trace; }

  // Attaches the analytical reliability tracker (src/rel); pass nullptr to
  // detach. Like observability, the tracker observes without perturbing:
  // every hook sits behind a null check and simulation results are
  // bit-identical with the tracker attached or not (tier-1 guard in
  // tests/rel_tracker_test.cc). The tracker must outlive the cache.
  void attach_rel(rel::RelTracker* rel) noexcept { rel_ = rel; }

  // ---- degraded-geometry surface ----
  // Disabled-way bitmask for `set` (bit w set == way w masked out).
  [[nodiscard]] std::uint32_t disabled_mask(std::uint32_t set) const noexcept {
    return disabled_masks_.empty() ? 0 : disabled_masks_[set];
  }
  [[nodiscard]] bool way_disabled(std::uint32_t set,
                                  std::uint32_t way) const noexcept {
    return (disabled_mask(set) >> way) & 1u;
  }
  // Enabled (allocatable) line count across the whole array.
  [[nodiscard]] std::uint64_t enabled_lines() const noexcept;
  // Disables (set, way) at runtime — the hard-fault mitigation path. The
  // resident line, if any, is flushed (written back when dirty) and
  // invalidated before the way is masked. Throws std::invalid_argument if
  // this would disable the set's last enabled way.
  void disable_way(std::uint32_t set, std::uint32_t way, std::uint64_t cycle);

  // §3.1 replica victim selection inside `set` (never a live primary, never
  // the block's own primary copy, never a disabled way). Returns nullptr if
  // no candidate. Public for the property-test reference scan and the
  // victim-search microbench.
  [[nodiscard]] IcrLine* select_replica_victim(std::uint32_t set,
                                               std::uint64_t block,
                                               std::uint64_t cycle);

  // Aborts if any structural invariant is violated (test hook):
  //  - at most one primary per block;
  //  - every primary's replica_count matches the resident replicas of its
  //    block at the policy's candidate sites;
  //  - replicas are never dirty;
  //  - every replica of block B lives at a candidate distance from B's set;
  //  - no valid line occupies a disabled way.
  void check_invariants() const;

 private:
  [[nodiscard]] IcrLine* set_base(std::uint32_t set) noexcept {
    return &lines_[static_cast<std::size_t>(set) * geometry_.associativity];
  }
  [[nodiscard]] const IcrLine* set_base(std::uint32_t set) const noexcept {
    return &lines_[static_cast<std::size_t>(set) * geometry_.associativity];
  }
  // Set index of a line that lives in lines_ (pointer arithmetic).
  [[nodiscard]] std::uint32_t set_of(const IcrLine& line) const noexcept {
    return static_cast<std::uint32_t>(
        static_cast<std::size_t>(&line - lines_.data()) /
        geometry_.associativity);
  }

  // Lines found by find_replicas(), in site then way order. Inline storage:
  // the lookup sits on the store, eviction and miss paths.
  class ReplicaList {
   public:
    void push_back(IcrLine* line) {
      ICR_CHECK(size_ < lines_.size());
      lines_[size_++] = line;
    }
    [[nodiscard]] IcrLine* const* begin() const noexcept {
      return lines_.data();
    }
    [[nodiscard]] IcrLine* const* end() const noexcept {
      return lines_.data() + size_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] IcrLine* front() const noexcept { return lines_[0]; }

   private:
    std::array<IcrLine*, 64> lines_;
    std::size_t size_ = 0;
  };

  [[nodiscard]] IcrLine* find_primary(std::uint64_t block) noexcept;
  // All resident replicas of `block` at the candidate distance sites.
  [[nodiscard]] ReplicaList find_replicas(std::uint64_t block);

  [[nodiscard]] std::uint64_t read_word(const IcrLine& line,
                                        std::uint32_t word_index) const;
  void write_word(IcrLine& line, std::uint32_t word_index, std::uint64_t value);
  void refresh_protection(IcrLine& line, std::uint32_t word_index);
  void fill_from_backing(IcrLine& line, std::uint64_t block);

  void touch(IcrLine& line, std::uint64_t cycle) noexcept;

  // Evicts `line` (writeback if dirty primary, replica bookkeeping, etc.).
  void evict_line(IcrLine& line, std::uint64_t cycle);
  // Invalidates a replica line: its stats, rel hook and eviction event.
  // Detaching it from its primary is the caller's business.
  void drop_replica(IcrLine& replica, std::uint64_t cycle);

  // Victim by plain LRU over the enabled ways of the natural set; evicts it
  // and returns the now-invalid line.
  IcrLine& allocate_primary_slot(std::uint64_t block, std::uint64_t cycle);
  // Allocates the primary of `block` and fills it, from the backing store
  // or, when `orphan` is a surviving replica of the block, from the
  // orphan's bits and its stale parity; re-attaches the block's replicas in
  // leave-replica mode. Neither touches the line nor counts the fill.
  IcrLine& install_primary(std::uint64_t block, std::uint64_t cycle,
                           const IcrLine* orphan);

  // One replication attempt for `primary` (counts metrics, walks the
  // candidate distances, installs up to the configured number of replicas).
  void attempt_replication(IcrLine& primary, std::uint64_t cycle);

  [[nodiscard]] std::uint32_t load_hit_latency(
      const IcrLine& line) const noexcept;

  // The recovery ladder (§3.1) for a word of primary `line` that failed
  // its check: rewrites it from the first clean replica, else refetches the
  // block if the line is clean. Returns the rung that repaired it (kNone:
  // dirty with no clean replica) and adds a refetch's latency to `latency`.
  // Counting is the caller's: loads and the scrubber count differently.
  AccessOutcome::Recovery repair_word(IcrLine& line, std::uint32_t word_index,
                                      std::uint64_t cycle,
                                      std::uint32_t& latency);

  // Parity/ECC verification of the accessed word. A failed parity check or
  // a SEC-DED double-bit error pays the load's replica probe, runs
  // repair_word, then tries the R-Cache for a dirty word. Updates `outcome`
  // (latency, error flags, delivered value).
  void verify_and_recover(IcrLine& line, std::uint32_t word_index,
                          std::uint64_t cycle, AccessOutcome& outcome);

  // True when the line is protected by parity (replicated lines always are).
  [[nodiscard]] bool parity_regime(const IcrLine& line) const noexcept;

  mem::CacheGeometry geometry_;
  Scheme scheme_;
  // Per-set disabled-way bitmasks; empty when no ways are disabled so the
  // common path stays a single emptiness check.
  std::vector<std::uint32_t> disabled_masks_;
  mem::MemoryHierarchy& next_;
  const ReplicationHints* hints_ = nullptr;
  baselines::RCache* rcache_ = nullptr;
  DeadBlockPredictor dbp_;
  std::vector<std::uint32_t> distances_;
  std::vector<IcrLine> lines_;
  // Per line, in lines_ order: line_bytes of data, then the parity bytes,
  // then the ECC bytes (one each per word); orphan_stage_'s bytes last.
  std::vector<std::uint8_t> payload_;
  IcrLine orphan_stage_;  // an orphan's bits while install_primary allocates
  std::unique_ptr<mem::WriteBuffer> write_buffer_;  // write-through only
  std::uint64_t lru_clock_ = 0;
  std::uint32_t scrub_cursor_ = 0;        // next set the scrubber visits
  std::uint64_t next_scrub_cycle_ = 0;
  IcrStats stats_;

  // Observability hooks (all optional; see attach_observability).
  rel::RelTracker* rel_ = nullptr;
  obs::EventTrace* trace_ = nullptr;
};

}  // namespace icr::core
