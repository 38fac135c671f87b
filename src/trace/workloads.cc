#include "src/trace/workloads.h"

#include <algorithm>

#include "src/util/check.h"

namespace icr::trace {

const char* to_string(App app) noexcept {
  switch (app) {
    case App::kGzip:
      return "gzip";
    case App::kVpr:
      return "vpr";
    case App::kGcc:
      return "gcc";
    case App::kMcf:
      return "mcf";
    case App::kParser:
      return "parser";
    case App::kMesa:
      return "mesa";
    case App::kVortex:
      return "vortex";
    case App::kBzip2:
      return "bzip2";
  }
  return "?";
}

std::vector<App> all_apps() {
  return {App::kGzip, App::kVpr,  App::kGcc,    App::kMcf,
          App::kParser, App::kMesa, App::kVortex, App::kBzip2};
}

namespace {

PatternSpec zipf(double w, std::uint64_t region, double theta) {
  PatternSpec p;
  p.kind = PatternSpec::Kind::kZipf;
  p.weight = w;
  p.region_bytes = region;
  p.zipf_theta = theta;
  return p;
}

PatternSpec seq(double w, std::uint64_t region, std::uint32_t stride = 8) {
  PatternSpec p;
  p.kind = PatternSpec::Kind::kSequential;
  p.weight = w;
  p.region_bytes = region;
  p.stride_bytes = stride;
  return p;
}

PatternSpec stride(double w, std::uint64_t region, std::uint32_t step) {
  PatternSpec p;
  p.kind = PatternSpec::Kind::kStride;
  p.weight = w;
  p.region_bytes = region;
  p.stride_bytes = step;
  return p;
}

PatternSpec chase(double w, std::uint64_t region,
                  std::uint32_t node_bytes = 64) {
  PatternSpec p;
  p.kind = PatternSpec::Kind::kChase;
  p.weight = w;
  p.region_bytes = region;
  p.node_bytes = node_bytes;
  return p;
}

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

}  // namespace

WorkloadProfile profile_for(App app) {
  WorkloadProfile p;
  p.name = to_string(app);
  switch (app) {
    case App::kGzip:
      // Streaming compressor: linear input scan + hot dictionary/huffman
      // tables; very predictable inner loops.
      p.load_frac = 0.33;
      p.store_frac = 0.11;
      p.branch_frac = 0.13;
      p.patterns = {seq(0.15, 512 * KiB), zipf(0.85, 14 * KiB, 1.30)};
      p.hard_branch_frac = 0.05;
      p.code_footprint_bytes = 8 * KiB;
      p.seed = 0x671Au;
      break;
    case App::kVpr:
      // Place & route: medium working set with good locality, a strided
      // routing-grid component, moderately hard branches.
      p.load_frac = 0.33;
      p.store_frac = 0.12;
      p.branch_frac = 0.14;
      p.fp_alu_frac = 0.08;
      p.patterns = {zipf(0.90, 14 * KiB, 1.30), stride(0.10, 6 * KiB, 136)};
      p.hard_branch_frac = 0.10;
      p.code_footprint_bytes = 12 * KiB;
      p.seed = 0x4412u;
      break;
    case App::kGcc:
      // Compiler: large data and code footprints, pointer-linked IR,
      // branchy and moderately unpredictable.
      p.load_frac = 0.32;
      p.store_frac = 0.13;
      p.branch_frac = 0.18;
      p.patterns = {zipf(0.86, 16 * KiB, 1.35), seq(0.08, 256 * KiB),
                    chase(0.06, 48 * KiB)};
      p.dependent_load_frac = 0.25;
      p.hard_branch_frac = 0.10;
      p.code_footprint_bytes = 48 * KiB;
      p.seed = 0x6CCu;
      break;
    case App::kMcf:
      // Network-simplex: dominated by a pointer chase over a region far
      // larger than any cache; a tiny hot set (node headers) is nearly the
      // only reuse — which ICR replicates almost completely (paper §5.2).
      p.load_frac = 0.36;
      p.store_frac = 0.08;
      p.branch_frac = 0.12;
      p.patterns = {chase(0.35, 2 * MiB), zipf(0.65, 8 * KiB, 1.20)};
      p.dependent_load_frac = 0.70;
      p.hard_branch_frac = 0.12;
      p.code_footprint_bytes = 4 * KiB;
      p.seed = 0x3CFu;
      break;
    case App::kParser:
      // Link-grammar parser: pointer-heavy dictionary walks plus a medium
      // hot set.
      p.load_frac = 0.33;
      p.store_frac = 0.12;
      p.branch_frac = 0.16;
      p.patterns = {chase(0.04, 128 * KiB), zipf(0.88, 12 * KiB, 1.35),
                    seq(0.08, 64 * KiB)};
      p.dependent_load_frac = 0.35;
      p.hard_branch_frac = 0.10;
      p.code_footprint_bytes = 24 * KiB;
      p.seed = 0x9A55u;
      break;
    case App::kMesa:
      // Software renderer: FP heavy, streaming vertex/span walks over a
      // working set that just about fits the dL1 — extra evictions from
      // replication visibly raise its miss rate (paper Fig. 4).
      p.load_frac = 0.31;
      p.store_frac = 0.08;
      p.branch_frac = 0.08;
      p.fp_alu_frac = 0.20;
      p.fp_mul_frac = 0.08;
      p.patterns = {seq(0.45, 6 * KiB), stride(0.20, 6 * KiB, 264),
                    zipf(0.35, 8 * KiB, 1.10)};
      p.hard_branch_frac = 0.04;
      p.code_footprint_bytes = 16 * KiB;
      p.seed = 0x3E5Au;
      break;
    case App::kVortex:
      // OO database: skewed object accesses, index chases, sizable stores.
      p.load_frac = 0.33;
      p.store_frac = 0.15;
      p.branch_frac = 0.14;
      p.patterns = {zipf(0.89, 14 * KiB, 1.35), chase(0.03, 96 * KiB),
                    seq(0.08, 128 * KiB)};
      p.dependent_load_frac = 0.20;
      p.hard_branch_frac = 0.08;
      p.code_footprint_bytes = 32 * KiB;
      p.seed = 0x0F0Fu;
      break;
    case App::kBzip2:
      // Block-sorting compressor: long sequential scans over large blocks
      // plus a hot bucket table.
      p.load_frac = 0.33;
      p.store_frac = 0.11;
      p.branch_frac = 0.11;
      p.patterns = {seq(0.18, 1 * MiB), zipf(0.82, 14 * KiB, 1.30)};
      p.hard_branch_frac = 0.07;
      p.code_footprint_bytes = 8 * KiB;
      p.seed = 0xB21Bu;
      break;
  }
  return p;
}

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile)
    : profile_(std::move(profile)),
      rng_(profile_.seed),
      on_spine_(profile_.spine_frac),
      dependent_load_(profile_.dependent_load_frac),
      hard_branch_(profile_.hard_branch_frac),
      hard_taken_(profile_.hard_branch_taken) {
  ICR_CHECK(!profile_.patterns.empty());
  memory_ = std::make_unique<MixturePattern>();
  std::uint64_t base = 0x1000'0000ULL;
  for (const PatternSpec& spec : profile_.patterns) {
    std::unique_ptr<AddressPattern> pattern;
    switch (spec.kind) {
      case PatternSpec::Kind::kZipf:
        pattern = std::make_unique<ZipfBlocks>(base, spec.region_bytes,
                                               spec.zipf_theta);
        is_chase_component_.push_back(false);
        break;
      case PatternSpec::Kind::kSequential:
      case PatternSpec::Kind::kStride:
        pattern = std::make_unique<SequentialStream>(base, spec.region_bytes,
                                                     spec.stride_bytes);
        is_chase_component_.push_back(false);
        break;
      case PatternSpec::Kind::kChase:
        pattern = std::make_unique<PointerChase>(base, spec.region_bytes,
                                                 spec.node_bytes, rng_);
        is_chase_component_.push_back(true);
        break;
    }
    memory_->add(spec.weight, std::move(pattern));
    base += 0x1000'0000ULL;  // disjoint data regions
  }
  code_base_ = 0x0040'0000ULL;
  pc_ = code_base_;
  recent_dests_.fill(1);
  site_visits_.assign(profile_.code_footprint_bytes / 4, 0);
  init_op_bounds();
}

namespace {

// The op mix in the order pick_op() consumes the profile's fractions, then
// the op a draw past every fraction gets.
constexpr OpClass kPickOps[] = {OpClass::kLoad,  OpClass::kStore,
                                OpClass::kBranch, OpClass::kFpAlu,
                                OpClass::kFpMul, OpClass::kIntMul,
                                OpClass::kIntAlu};

}  // namespace

void SyntheticWorkload::init_op_bounds() {
  const WorkloadProfile& p = profile_;
  const double fracs[] = {p.load_frac,   p.store_frac,  p.branch_frac,
                          p.fp_alu_frac, p.fp_mul_frac, p.int_mul_frac};
  // The op is the first whose fraction, subtracted in turn from a uniform
  // u = m * 2^-53, takes u below zero. Each running difference is a monotone
  // function of m, so "below zero after step k" is exactly m < bound[k]:
  // bisect for each bound once, and pick_op() compares integers instead of
  // running the serial floating-point chain per draw.
  auto below_zero_after = [&](std::uint64_t m, std::size_t k) {
    double u = static_cast<double>(m) * 0x1.0p-53;
    for (std::size_t j = 0; j <= k; ++j) u -= fracs[j];
    return u < 0;
  };
  for (std::size_t k = 0; k < op_bounds_.size(); ++k) {
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t{1} << 53;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (below_zero_after(mid, k)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    op_bounds_[k] = lo;
    // Fractions are non-negative, so the running differences only fall and
    // the bounds never decrease: pick_op() relies on it.
    ICR_CHECK(k == 0 || op_bounds_[k - 1] <= op_bounds_[k]);
  }
}

[[gnu::always_inline]] inline OpClass SyntheticWorkload::pick_op() {
  // With non-decreasing bounds, the first k with m < op_bounds_[k] is the
  // number of bounds at or below m; counting them needs no branch.
  const std::uint64_t m = rng_.next_u53();
  std::size_t k = 0;
  for (const std::uint64_t bound : op_bounds_) k += m >= bound ? 1 : 0;
  return kPickOps[k];
}

[[gnu::always_inline]] inline std::int16_t SyntheticWorkload::pick_source() {
  // A quarter of the operands come from the immediately preceding producer
  // (tight dependence chains); the rest are drawn uniformly from a 16-deep
  // producer window, leaving the out-of-order core ILP to extract.
  const std::size_t n = recent_dests_.size();
  if (last_producer_(rng_)) return recent_dest(n - 1);
  return recent_dest(static_cast<std::size_t>(rng_.next_below(n)));
}

[[gnu::always_inline]] inline void SyntheticWorkload::advance_pc(Instruction& instr) {
  // pc_ stays inside the footprint, so the modulo of wrap() and of the
  // site index is almost always the identity; skip the division then.
  const std::uint64_t footprint = profile_.code_footprint_bytes;
  auto wrap = [&](std::uint64_t pc) {
    const std::uint64_t offset = pc - code_base_;
    return code_base_ + (offset < footprint ? offset : offset % footprint);
  };

  if (!instr.is_branch()) {
    instr.next_pc = wrap(instr.pc + 4);
    pc_ = instr.next_pc;
    return;
  }

  const std::size_t slot =
      static_cast<std::size_t>((instr.pc - code_base_) / 4);
  const std::size_t site =
      slot < site_visits_.size() ? slot : slot % site_visits_.size();
  const bool hard = hard_branch_(rng_);
  bool taken;
  if (hard) {
    taken = hard_taken_(rng_);
  } else {
    // Loop-end branch: taken (trip-1) times, then falls through — a
    // periodic pattern the two-level predictor can learn.
    const std::uint16_t trip =
        static_cast<std::uint16_t>(8 + (mix64(instr.pc) % 24));
    taken = (site_visits_[site] % trip) != trip - 1u;
  }
  ++site_visits_[site];

  instr.branch_taken = taken;
  if (taken) {
    // Backward loop target derived deterministically from the site, so the
    // BTB sees a stable target.
    const std::uint64_t loop_len = 16 + (mix64(instr.pc ^ 0xB5) % 48) * 4;
    instr.next_pc =
        instr.pc >= code_base_ + loop_len ? instr.pc - loop_len
                                          : wrap(instr.pc + 4 + loop_len);
  } else {
    instr.next_pc = wrap(instr.pc + 4);
  }
  pc_ = instr.next_pc;
}

Instruction SyntheticWorkload::next() {
  Instruction instr;
  instr.pc = pc_;
  instr.op = pick_op();
  ++seq_;

  const std::int16_t dest = static_cast<std::int16_t>(1 + (seq_ % 48));

  // Loads always join the spine — address arithmetic feeding loads feeding
  // consumers is the canonical dependence shape that puts dL1 hit latency on
  // the critical path — while other ops join with probability spine_frac.
  const bool on_spine =
      instr.op == OpClass::kLoad || on_spine_(rng_);

  switch (instr.op) {
    case OpClass::kLoad: {
      instr.mem_addr = memory_->next(rng_);
      const bool chase_ref =
          is_chase_component_[memory_->last_component()];
      instr.dest = dest;
      if (chase_ref && last_load_dest_ >= 0 &&
          dependent_load_(rng_)) {
        instr.src1 = last_load_dest_;  // serialized pointer chase
      } else if (on_spine) {
        instr.src1 = spine_reg_;
      } else {
        instr.src1 = pick_source();
      }
      last_load_dest_ = dest;
      if (on_spine) spine_reg_ = dest;
      break;
    }
    case OpClass::kStore: {
      instr.mem_addr = memory_->next(rng_);
      instr.store_value = mix64(seq_ ^ instr.mem_addr);
      instr.src1 = on_spine ? spine_reg_ : pick_source();  // data
      instr.src2 = pick_source();                          // address base
      break;
    }
    case OpClass::kBranch: {
      instr.src1 = on_spine ? spine_reg_ : pick_source();
      break;
    }
    default: {
      instr.dest = dest;
      instr.src1 = on_spine ? spine_reg_ : pick_source();
      if (second_source_(rng_)) instr.src2 = pick_source();
      if (on_spine) spine_reg_ = dest;
      break;
    }
  }

  if (instr.dest >= 0) {
    recent_dests_[recent_head_] = instr.dest;  // overwrites the oldest
    recent_head_ = (recent_head_ + 1) % recent_dests_.size();
  }
  advance_pc(instr);
  return instr;
}

}  // namespace icr::trace
