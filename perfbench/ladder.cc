#include "perfbench/ladder.h"

#include <algorithm>

#include "src/coding/parity.h"
#include "src/coding/secded.h"
#include "src/core/icr_cache.h"
#include "src/fault/fault_injector.h"
#include "src/mem/memory_hierarchy.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace icr;

// Ticks timed per cell for the fault rung; at 1e-3 per tick this injects
// about 200 faults into the warmed replay cache.
constexpr std::uint64_t kTicks = 200000;
// Minimum primitive calls per coding measurement, so each lasts long
// enough to be well above the clock's resolution.
constexpr std::uint64_t kMinCodingOps = 200000;

// Cost of the two clock reads around a timed call, subtracted from every
// per-call time. The median of batches keeps a preempted batch out.
double clock_pair_seconds() {
  static const double cost = [] {
    std::vector<double> batches;
    for (int b = 0; b < 31; ++b) {
      const auto start = Clock::now();
      for (int i = 0; i < 1000; ++i) (void)seconds_since(Clock::now());
      batches.push_back(seconds_since(start) / 1000.0);
    }
    std::nth_element(batches.begin(), batches.begin() + 15, batches.end());
    return batches[15];
  }();
  return cost;
}

}  // namespace

ReplayCost& ReplayCost::operator+=(const ReplayCost& other) {
  loads += other.loads;
  stores += other.stores;
  load_s += other.load_s;
  store_s += other.store_s;
  fetches += other.fetches;
  fetch_s += other.fetch_s;
  coding_ops += other.coding_ops;
  encode_s += other.encode_s;
  decode_s += other.decode_s;
  parity_s += other.parity_s;
  ticks += other.ticks;
  tick_s += other.tick_s;
  return *this;
}

void TimedSource::refill() {
  const auto start = Clock::now();
  for (trace::Instruction& record : batch_) record = inner_->next();
  seconds_ += seconds_since(start);
  pulled_ += batch_.size();
  pos_ = 0;
}

std::vector<MemOp> capture_mem_ops(trace::TraceSource& source,
                                   std::uint64_t instructions,
                                   std::uint64_t cycles) {
  std::vector<MemOp> ops;
  const double cpi = instructions == 0
                         ? 1.0
                         : static_cast<double>(cycles) /
                               static_cast<double>(instructions);
  for (std::uint64_t i = 0; i < instructions; ++i) {
    const trace::Instruction record = source.next();
    if (!record.is_mem()) continue;
    ops.push_back({record.mem_addr, record.store_value,
                   static_cast<std::uint64_t>(static_cast<double>(i) * cpi),
                   record.is_store()});
  }
  return ops;
}

ReplayCost replay_cell(const sim::SimConfig& config, const core::Scheme& scheme,
                       const std::vector<MemOp>& ops, std::uint64_t seed) {
  ReplayCost cost;
  std::uint64_t sink = 0;

  // Pass 1: the replay's total, with no clock inside the loop.
  double total = 0.0;
  {
    mem::MemoryHierarchy hierarchy(config.hierarchy);
    core::IcrCache dl1(config.dl1, scheme, hierarchy, config.dl1_way_disable);
    const auto start = Clock::now();
    for (const MemOp& op : ops) {
      sink += op.store ? dl1.store(op.addr, op.value, op.cycle).latency
                       : dl1.load(op.addr, op.cycle).value;
    }
    total = seconds_since(start);
  }

  // Pass 2 on a fresh cache: every call timed, which only splits pass 1's
  // total between loads and stores. It also yields the miss stream for the
  // mem rung and a warm cache for the fault rung.
  mem::MemoryHierarchy hierarchy(config.hierarchy);
  core::IcrCache dl1(config.dl1, scheme, hierarchy, config.dl1_way_disable);
  const double overhead = clock_pair_seconds();
  double load_raw = 0.0;
  double store_raw = 0.0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> misses;  // block, cycle
  for (const MemOp& op : ops) {
    const auto start = Clock::now();
    const core::IcrCache::AccessOutcome outcome =
        op.store ? dl1.store(op.addr, op.value, op.cycle)
                 : dl1.load(op.addr, op.cycle);
    const double took = seconds_since(start) - overhead;
    if (op.store) {
      store_raw += took;
      ++cost.stores;
    } else {
      load_raw += took;
      ++cost.loads;
    }
    sink += outcome.latency;
    if (!outcome.hit) {
      misses.emplace_back(config.dl1.block_address(op.addr), op.cycle);
    }
  }
  load_raw = std::max(load_raw, 0.0);
  store_raw = std::max(store_raw, 0.0);
  const double load_frac = load_raw + store_raw > 0.0
                               ? load_raw / (load_raw + store_raw)
                               : 0.5;
  cost.load_s = total * load_frac;
  cost.store_s = total - cost.load_s;

  {
    fault::FaultInjector injector(fault::FaultModel::kRandom, 1e-3, Rng(seed));
    const std::uint64_t first = ops.empty() ? 0 : ops.back().cycle + 1;
    const auto start = Clock::now();
    for (std::uint64_t t = 0; t < kTicks; ++t) injector.tick(dl1, first + t);
    cost.tick_s = seconds_since(start);
    cost.ticks = kTicks;
    sink += injector.stats().injections;
  }

  {
    mem::MemoryHierarchy fresh(config.hierarchy);
    const auto start = Clock::now();
    for (const auto& [block, cycle] : misses) {
      sink += fresh.fetch_block(block, cycle);
    }
    cost.fetch_s = seconds_since(start);
    cost.fetches = misses.size();
  }

  std::vector<std::uint64_t> words;
  for (const MemOp& op : ops) {
    if (op.store) words.push_back(op.value);
  }
  if (words.empty()) words.push_back(0x9E3779B97F4A7C15ULL);
  const std::uint64_t calls = std::max<std::uint64_t>(kMinCodingOps, words.size());
  std::vector<std::uint8_t> checks;
  checks.reserve(words.size());
  for (const std::uint64_t w : words) checks.push_back(secded_encode(w));
  const auto time_calls = [&](auto&& call) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) sink += call(i % words.size());
    return seconds_since(start);
  };
  cost.coding_ops = calls;
  cost.encode_s = time_calls([&](std::size_t i) { return secded_encode(words[i]); });
  cost.decode_s = time_calls(
      [&](std::size_t i) { return secded_decode(words[i], checks[i]).data; });
  cost.parity_s = time_calls([&](std::size_t i) { return byte_parity(words[i]); });

  // Keeps every timed result observable, so no loop is optimized away.
  static volatile std::uint64_t g_sink = 0;
  g_sink = g_sink + sink;
  return cost;
}

}  // namespace perfbench
