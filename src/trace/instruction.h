// The dynamic instruction record consumed by the timing model.
//
// The simulator is trace-driven: workload generators (src/trace/workloads.h)
// and recorded ICRT-v2 traces (src/trace/trace_v2.h) produce an infinite
// stream of Instruction records carrying everything the out-of-order
// pipeline needs — op class, register dependences, memory address, and the
// *actual* branch outcome (so mispredictions are decided by comparing the
// predictor against ground truth, the standard trace-driven technique).
#pragma once

#include <cstdint>

namespace icr::trace {

enum class OpClass : std::uint8_t {
  kIntAlu,
  kIntMul,
  kIntDiv,
  kFpAlu,
  kFpMul,
  kFpDiv,
  kLoad,
  kStore,
  kBranch,
};

[[nodiscard]] const char* to_string(OpClass op) noexcept;

struct Instruction {
  OpClass op = OpClass::kIntAlu;
  std::uint64_t pc = 0;
  std::uint64_t mem_addr = 0;     // loads/stores; 8-byte aligned
  std::uint64_t store_value = 0;  // stores
  std::uint64_t next_pc = 0;      // actual successor (branch target if taken)
  bool branch_taken = false;      // actual outcome
  // Architectural registers (0..kNumRegs-1); -1 = none.
  std::int16_t dest = -1;
  std::int16_t src1 = -1;
  std::int16_t src2 = -1;

  [[nodiscard]] bool is_load() const noexcept { return op == OpClass::kLoad; }
  [[nodiscard]] bool is_store() const noexcept {
    return op == OpClass::kStore;
  }
  [[nodiscard]] bool is_mem() const noexcept {
    return is_load() || is_store();
  }
  [[nodiscard]] bool is_branch() const noexcept {
    return op == OpClass::kBranch;
  }

  static constexpr int kNumRegs = 64;
};

// Source of a dynamic instruction stream. Streams are infinite; the
// simulator decides how many instructions to run.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual Instruction next() = 0;
};

}  // namespace icr::trace
