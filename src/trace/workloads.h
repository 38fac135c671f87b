// Synthetic SPEC2000-like workload models (substitution for the paper's
// SPEC2000/SimpleScalar traces — see DESIGN.md §2).
//
// Each application is a parameter set (WorkloadProfile) driving a generic
// generator (SyntheticWorkload) that emits a deterministic, infinite
// instruction stream with:
//   * an instruction mix (loads/stores/branches/int/fp),
//   * a memory reference stream composed of Zipf hot sets, sequential
//     streams, strided walks and pointer chases sized against the 16KB dL1,
//   * register dependences that control ILP (pointer-chase loads are made
//     address-dependent on the previous load, serializing them as in mcf),
//   * a control-flow model with periodic (predictable) loop branches and a
//     configurable fraction of data-dependent (hard) branches, walking a
//     code footprint that determines L1I pressure.
//
// The eight profiles mirror the paper's benchmarks qualitatively: mcf is a
// cache-hostile pointer chaser with a tiny hot set, mesa a low-miss FP
// renderer whose working set barely fits the dL1 (so replica pollution
// visibly hurts, as in Fig. 4), gzip/bzip2 streaming compressors, etc.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/instruction.h"
#include "src/trace/patterns.h"
#include "src/util/rng.h"

namespace icr::trace {

enum class App : std::uint8_t {
  kGzip,
  kVpr,
  kGcc,
  kMcf,
  kParser,
  kMesa,
  kVortex,
  kBzip2,
};

[[nodiscard]] const char* to_string(App app) noexcept;
[[nodiscard]] std::vector<App> all_apps();

struct PatternSpec {
  enum class Kind : std::uint8_t { kZipf, kSequential, kStride, kChase };
  Kind kind = Kind::kZipf;
  double weight = 1.0;
  std::uint64_t region_bytes = 64 * 1024;
  double zipf_theta = 0.8;       // kZipf
  std::uint32_t stride_bytes = 8;  // kSequential / kStride
  std::uint32_t node_bytes = 64;   // kChase
};

struct WorkloadProfile {
  std::string name;
  // Instruction mix; the remainder after all fractions is integer ALU work.
  double load_frac = 0.25;
  double store_frac = 0.10;
  double branch_frac = 0.12;
  double fp_alu_frac = 0.0;
  double fp_mul_frac = 0.0;
  double int_mul_frac = 0.01;

  std::vector<PatternSpec> patterns;
  // Fraction of chase-pattern loads whose address register depends on the
  // previous load (serializing them through the RUU).
  double dependent_load_frac = 0.0;

  // Fraction of value-producing instructions on the serial dependence
  // "spine" (each spine instruction consumes the previous spine result).
  // This is the knob that controls how much of the dL1 hit latency is
  // architecturally exposed: spine loads put their full latency on the
  // critical path, exactly the load-use chains that make 2-cycle ECC loads
  // expensive in the paper.
  double spine_frac = 0.55;

  // Control flow.
  double hard_branch_frac = 0.25;  // data-dependent, ~random outcome
  double hard_branch_taken = 0.5;
  std::uint64_t code_footprint_bytes = 16 * 1024;

  std::uint64_t seed = 1;
};

// The calibrated profile for one of the paper's eight applications.
[[nodiscard]] WorkloadProfile profile_for(App app);

class SyntheticWorkload final : public TraceSource {
 public:
  explicit SyntheticWorkload(WorkloadProfile profile);

  Instruction next() override;

  [[nodiscard]] const WorkloadProfile& profile() const noexcept {
    return profile_;
  }

 private:
  void init_op_bounds();
  [[nodiscard]] OpClass pick_op();
  void advance_pc(Instruction& instr);
  [[nodiscard]] std::int16_t pick_source();
  // i-th oldest of the recent destination registers.
  [[nodiscard]] std::int16_t recent_dest(std::size_t i) const noexcept {
    return recent_dests_[(recent_head_ + i) % recent_dests_.size()];
  }

  WorkloadProfile profile_;
  Rng rng_;
  // Rng::bernoulli of the profile's fractions and of the fixed operand odds.
  Bernoulli on_spine_;
  Bernoulli dependent_load_;
  Bernoulli hard_branch_;
  Bernoulli hard_taken_;
  Bernoulli last_producer_{0.25};
  Bernoulli second_source_{0.6};
  std::unique_ptr<MixturePattern> memory_;
  // pick_op(): draw m selects the first op k with m < op_bounds_[k].
  std::array<std::uint64_t, 6> op_bounds_{};
  std::vector<bool> is_chase_component_;

  std::uint64_t seq_ = 0;
  std::uint64_t pc_;
  std::uint64_t code_base_;
  // Rolling window of recent destination registers for dependence edges:
  // a ring whose oldest entry is at recent_head_.
  std::array<std::int16_t, 16> recent_dests_;
  std::size_t recent_head_ = 0;
  std::int16_t last_load_dest_ = -1;
  std::int16_t spine_reg_ = 1;  // current tail of the dependence spine
  // Loop-branch state: per-site visit counters give periodic outcomes.
  std::vector<std::uint16_t> site_visits_;
};

}  // namespace icr::trace
