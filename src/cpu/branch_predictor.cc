#include "src/cpu/branch_predictor.h"

namespace icr::cpu {
namespace {

constexpr std::uint32_t kHistoryMask =
    (1U << BranchPredictor::kHistoryBits) - 1;

}  // namespace

BranchPredictor::BranchPredictor() {
  bimodal_.fill(1);  // weakly not-taken
  two_level_.fill(1);
  meta_.fill(1);
}

std::uint32_t BranchPredictor::bimodal_index(std::uint64_t pc) const noexcept {
  return static_cast<std::uint32_t>((pc >> 2) & (kBimodalEntries - 1));
}

std::uint32_t BranchPredictor::two_level_index(std::uint64_t pc) const noexcept {
  return static_cast<std::uint32_t>(((pc >> 2) ^ (history_ & kHistoryMask)) &
                                    (kTwoLevelEntries - 1));
}

std::uint32_t BranchPredictor::meta_index(std::uint64_t pc) const noexcept {
  return static_cast<std::uint32_t>((pc >> 2) & (kMetaEntries - 1));
}

std::uint32_t BranchPredictor::btb_set(std::uint64_t pc) noexcept {
  return static_cast<std::uint32_t>((pc >> 2) & (kBtbSets - 1));
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
  const BtbEntry* base = &btb_[std::size_t{btb_set(pc)} * kBtbWays];
  for (std::uint32_t w = 0; w < kBtbWays; ++w) {
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
  history_ = ((history_ << 1) | (taken ? 1U : 0U)) & kHistoryMask;
  if (taken) {
    BtbEntry* base = &btb_[std::size_t{btb_set(pc)} * kBtbWays];
    BtbEntry* victim = &base[0];
    ++btb_clock_;
    for (std::uint32_t w = 0; w < kBtbWays; ++w) {
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
