// Combined branch predictor + BTB (paper Table 1).
//
// The direction predictor follows SimpleScalar's `comb` configuration: a
// bimodal table of 2-bit counters (2K entries), a two-level predictor with
// an 8-bit global history register indexing a 1K-entry pattern history
// table (gshare-style hashing with the PC), and a meta chooser of 2-bit
// counters that learns per branch which component to trust. Targets come
// from a 512-entry 4-way BTB; a taken branch whose target misses in the BTB
// cannot redirect fetch and is charged as a misprediction.
#pragma once

#include <array>
#include <cstdint>

#include "src/util/bitops.h"
#include "src/util/counter_table.h"

namespace icr::cpu {

struct BranchPredictorStats {
  std::uint64_t lookups = 0;
  std::uint64_t direction_mispredicts = 0;
  std::uint64_t btb_misses = 0;  // taken branches with unknown target

  [[nodiscard]] double mispredict_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(direction_mispredicts) /
                              static_cast<double>(lookups);
  }

  static constexpr util::CounterRow<BranchPredictorStats> kCounters[] = {
      {"lookups", &BranchPredictorStats::lookups},
      {"direction_mispredicts", &BranchPredictorStats::direction_mispredicts},
      {"btb_misses", &BranchPredictorStats::btb_misses},
  };
};
static_assert(util::table_covers<BranchPredictorStats>());

class BranchPredictor {
 public:
  // Table sizes (Table 1). Every table is indexed by a mask.
  static constexpr std::uint32_t kBimodalEntries = 2048;
  static constexpr std::uint32_t kTwoLevelEntries = 1024;
  static constexpr std::uint32_t kHistoryBits = 8;
  static constexpr std::uint32_t kMetaEntries = 2048;
  static constexpr std::uint32_t kBtbEntries = 512;
  static constexpr std::uint32_t kBtbWays = 4;
  static constexpr std::uint32_t kBtbSets = kBtbEntries / kBtbWays;
  static_assert(is_pow2(kBimodalEntries) && is_pow2(kTwoLevelEntries) &&
                is_pow2(kMetaEntries) && is_pow2(kBtbSets));
  static_assert(kBtbEntries % kBtbWays == 0);

  BranchPredictor();

  struct Prediction {
    bool taken = false;
    bool target_known = false;
    std::uint64_t target = 0;
  };

  [[nodiscard]] Prediction predict(std::uint64_t pc) const;

  // Trains all tables with the actual outcome and returns true iff the
  // prediction made *before* this update would have been wrong (direction
  // wrong, or taken with an unknown/incorrect target).
  bool predict_and_update(std::uint64_t pc, bool taken, std::uint64_t target);

  [[nodiscard]] const BranchPredictorStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct BtbEntry {
    bool valid = false;
    std::uint64_t pc = 0;
    std::uint64_t target = 0;
    std::uint64_t lru = 0;
  };

  [[nodiscard]] std::uint32_t bimodal_index(std::uint64_t pc) const noexcept;
  [[nodiscard]] std::uint32_t two_level_index(std::uint64_t pc) const noexcept;
  [[nodiscard]] std::uint32_t meta_index(std::uint64_t pc) const noexcept;
  [[nodiscard]] static std::uint32_t btb_set(std::uint64_t pc) noexcept;

  static void train(std::uint8_t& counter, bool taken) noexcept;

  std::array<std::uint8_t, kBimodalEntries> bimodal_;    // 2-bit counters
  std::array<std::uint8_t, kTwoLevelEntries> two_level_;  // 2-bit (PHT)
  std::array<std::uint8_t, kMetaEntries> meta_;  // 2-bit: >=2 -> two-level
  std::uint32_t history_ = 0;
  std::array<BtbEntry, kBtbEntries> btb_;
  std::uint64_t btb_clock_ = 0;
  BranchPredictorStats stats_;
};

}  // namespace icr::cpu
