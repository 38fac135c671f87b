#include "src/cpu/branch_predictor.h"

#include "src/util/bitops.h"
#include "src/util/check.h"

namespace icr::cpu {

BranchPredictor::BranchPredictor(BranchPredictorConfig config)
    : config_(config) {
  bimodal_.assign(config_.bimodal_entries, 1);   // weakly not-taken
  two_level_.assign(config_.two_level_entries, 1);
  meta_.assign(config_.meta_entries, 1);
  btb_.resize(config_.btb_entries);
  ICR_CHECK(config_.btb_entries % config_.btb_ways == 0);
}

std::uint32_t BranchPredictor::bimodal_index(std::uint64_t pc) const noexcept {
  return static_cast<std::uint32_t>(
      mod_fast(pc >> 2, config_.bimodal_entries));
}

std::uint32_t BranchPredictor::two_level_index(std::uint64_t pc) const noexcept {
  const std::uint32_t hist_mask = (1U << config_.history_bits) - 1;
  return static_cast<std::uint32_t>(mod_fast(
      (pc >> 2) ^ (history_ & hist_mask), config_.two_level_entries));
}

std::uint32_t BranchPredictor::meta_index(std::uint64_t pc) const noexcept {
  return static_cast<std::uint32_t>(mod_fast(pc >> 2, config_.meta_entries));
}

void BranchPredictor::train(std::uint8_t& counter, bool taken) noexcept {
  if (taken) {
    if (counter < 3) ++counter;
  } else {
    if (counter > 0) --counter;
  }
}

BranchPredictor::Prediction BranchPredictor::predict(std::uint64_t pc) const {
  const bool bimodal_taken = bimodal_[bimodal_index(pc)] >= 2;
  const bool two_level_taken = two_level_[two_level_index(pc)] >= 2;
  const bool use_two_level = meta_[meta_index(pc)] >= 2;

  Prediction pred;
  pred.taken = use_two_level ? two_level_taken : bimodal_taken;

  // BTB lookup.
  const std::uint64_t sets =
      div_fast(config_.btb_entries, config_.btb_ways);
  const auto set = static_cast<std::uint32_t>(mod_fast(pc >> 2, sets));
  const BtbEntry* base = &btb_[static_cast<std::size_t>(set) * config_.btb_ways];
  for (std::uint32_t w = 0; w < config_.btb_ways; ++w) {
    if (base[w].valid && base[w].pc == pc) {
      pred.target_known = true;
      pred.target = base[w].target;
      break;
    }
  }
  return pred;
}

bool BranchPredictor::predict_and_update(std::uint64_t pc, bool taken,
                                         std::uint64_t target) {
  ++stats_.lookups;
  const Prediction pred = predict(pc);

  bool mispredicted = pred.taken != taken;
  if (!mispredicted && taken) {
    if (!pred.target_known || pred.target != target) {
      mispredicted = true;
      ++stats_.btb_misses;
    }
  }
  if (pred.taken != taken) ++stats_.direction_mispredicts;

  // Train the components. The meta chooser moves toward whichever component
  // was right when they disagree.
  const bool bimodal_taken = bimodal_[bimodal_index(pc)] >= 2;
  const bool two_level_taken = two_level_[two_level_index(pc)] >= 2;
  if (bimodal_taken != two_level_taken) {
    train(meta_[meta_index(pc)], two_level_taken == taken);
  }
  train(bimodal_[bimodal_index(pc)], taken);
  train(two_level_[two_level_index(pc)], taken);

  // Update global history and BTB.
  history_ = ((history_ << 1) | (taken ? 1U : 0U)) &
             ((1U << config_.history_bits) - 1);
  if (taken) {
    const std::uint64_t sets =
        div_fast(config_.btb_entries, config_.btb_ways);
    const auto set = static_cast<std::uint32_t>(mod_fast(pc >> 2, sets));
    BtbEntry* base = &btb_[static_cast<std::size_t>(set) * config_.btb_ways];
    BtbEntry* victim = &base[0];
    ++btb_clock_;
    for (std::uint32_t w = 0; w < config_.btb_ways; ++w) {
      if (base[w].valid && base[w].pc == pc) {
        victim = &base[w];
        break;
      }
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    victim->valid = true;
    victim->pc = pc;
    victim->target = target;
    victim->lru = btb_clock_;
  }
  return mispredicted;
}

}  // namespace icr::cpu
