#include "src/fault/fault_injector.h"

namespace icr::fault {

const char* to_string(FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kRandom:
      return "random";
    case FaultModel::kAdjacent:
      return "adjacent";
    case FaultModel::kColumn:
      return "column";
    case FaultModel::kDirect:
      return "direct";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultModel model, double probability,
                             Rng rng) noexcept
    : model_(model),
      probability_(probability),
      strikes_(probability),
      rng_(rng) {
  direct_bit_ = static_cast<std::uint32_t>(rng_.next_below(8));
  direct_byte_ = static_cast<std::uint32_t>(rng_.next_below(64));
}

bool FaultInjector::pick_valid_line(const core::IcrCache& cache,
                                    std::uint32_t& set, std::uint32_t& way) {
  // Rejection-sample a few times; a warm cache is almost always full.
  for (int attempt = 0; attempt < 64; ++attempt) {
    set = static_cast<std::uint32_t>(rng_.next_below(cache.num_sets()));
    way = static_cast<std::uint32_t>(rng_.next_below(cache.ways()));
    if (cache.line(set, way).valid) return true;
  }
  // Fall back to a linear scan so a sparse cache still gets hit.
  for (std::uint32_t s = 0; s < cache.num_sets(); ++s) {
    for (std::uint32_t w = 0; w < cache.ways(); ++w) {
      if (cache.line(s, w).valid) {
        set = s;
        way = w;
        return true;
      }
    }
  }
  return false;
}

void FaultInjector::inject_once(core::IcrCache& cache, std::uint64_t cycle) {
  std::uint32_t set = 0;
  std::uint32_t way = 0;
  if (!pick_valid_line(cache, set, way)) {
    ++stats_.skipped_empty;
    return;
  }
  ++stats_.injections;
  const std::uint64_t bits_before = stats_.bits_flipped;
  const std::uint32_t line_bytes = cache.geometry().line_bytes;

  switch (model_) {
    case FaultModel::kRandom: {
      const auto byte = static_cast<std::uint32_t>(rng_.next_below(line_bytes));
      const auto bit = static_cast<std::uint32_t>(rng_.next_below(8));
      cache.flip_data_bit(set, way, byte, bit);
      ++stats_.bits_flipped;
      break;
    }
    case FaultModel::kAdjacent: {
      const auto byte = static_cast<std::uint32_t>(rng_.next_below(line_bytes));
      const auto bit = static_cast<std::uint32_t>(rng_.next_below(7));
      cache.flip_data_bit(set, way, byte, bit);
      cache.flip_data_bit(set, way, byte, bit + 1);
      stats_.bits_flipped += 2;
      break;
    }
    case FaultModel::kColumn: {
      const auto byte = static_cast<std::uint32_t>(rng_.next_below(line_bytes));
      const auto bit = static_cast<std::uint32_t>(rng_.next_below(8));
      cache.flip_data_bit(set, way, byte, bit);
      ++stats_.bits_flipped;
      const std::uint32_t way2 = (way + 1) % cache.ways();
      if (way2 != way && cache.line(set, way2).valid) {
        cache.flip_data_bit(set, way2, byte, bit);
        ++stats_.bits_flipped;
      }
      break;
    }
    case FaultModel::kDirect: {
      cache.flip_data_bit(set, way, direct_byte_ % line_bytes, direct_bit_);
      ++stats_.bits_flipped;
      break;
    }
  }
  if (trace_ != nullptr && trace_->wants(obs::EventCategory::kFault)) {
    trace_->emit(obs::EventKind::kFaultInject, cycle, set, way,
                 stats_.bits_flipped - bits_before);
  }
}

void FaultInjector::record_outcome(obs::FaultVerdict verdict,
                                   std::uint64_t cycle,
                                   std::uint64_t word_addr) noexcept {
  switch (verdict) {
    case obs::FaultVerdict::kCorrected:
      ++stats_.corrected;
      break;
    case obs::FaultVerdict::kReplicaRecovered:
      ++stats_.replica_recovered;
      break;
    case obs::FaultVerdict::kDetectedUncorrectable:
      ++stats_.detected_uncorrectable;
      break;
    case obs::FaultVerdict::kSilent:
      ++stats_.silent;
      break;
  }
  if (trace_ != nullptr && trace_->wants(obs::EventCategory::kFault)) {
    trace_->emit(obs::EventKind::kFaultVerdict, cycle, word_addr,
                 static_cast<std::uint64_t>(verdict));
  }
}

}  // namespace icr::fault
