// Functional-unit pool (paper Table 1): 4 integer ALUs, 1 integer
// multiplier/divider, 4 FP ALUs, 1 FP multiplier/divider, plus 2 memory
// ports for loads/stores. ALU-class units are fully pipelined (issue
// interval 1); dividers are unpipelined and block their unit for the whole
// operation, like SimpleScalar's resource model.
#pragma once

#include <array>
#include <cstdint>

#include "src/trace/instruction.h"

namespace icr::cpu {

class FunctionalUnits {
 public:
  // Unit counts (Table 1).
  static constexpr std::uint32_t kIntAlus = 4;
  static constexpr std::uint32_t kIntMulDivs = 1;
  static constexpr std::uint32_t kFpAlus = 4;
  static constexpr std::uint32_t kFpMulDivs = 1;
  static constexpr std::uint32_t kMemPorts = 2;

  // Execution latencies in cycles (SimpleScalar's defaults).
  static constexpr std::uint32_t kIntAluLatency = 1;
  static constexpr std::uint32_t kIntMulLatency = 3;
  static constexpr std::uint32_t kIntDivLatency = 20;
  static constexpr std::uint32_t kFpAluLatency = 2;
  static constexpr std::uint32_t kFpMulLatency = 4;
  static constexpr std::uint32_t kFpDivLatency = 12;

  // Attempts to claim a unit for `op` at `cycle`. On success returns true
  // and sets `latency` to the execution latency. Memory ops claim a port;
  // their latency is determined by the cache and passed by the caller, so
  // `latency` is left at 0 for them.
  bool try_issue(trace::OpClass op, std::uint64_t cycle,
                 std::uint32_t& latency);

  // Extends the memory port claimed at `cycle` so it stays busy for
  // `total_busy` cycles. Used for multi-cycle dL1 hits (e.g. 2-cycle ECC
  // verification occupies the port, not just the result latency).
  void extend_mem_port(std::uint64_t cycle, std::uint32_t total_busy);

 private:
  // A unit class: N units, unit i free again at busy_until[i].
  template <std::size_t N>
  struct Pool {
    std::array<std::uint64_t, N> busy_until{};
    bool claim(std::uint64_t cycle, std::uint32_t busy_for) {
      for (auto& free_at : busy_until) {
        if (free_at <= cycle) {
          free_at = cycle + busy_for;
          return true;
        }
      }
      return false;
    }
  };

  Pool<kIntAlus> int_alu_;
  Pool<kIntMulDivs> int_muldiv_;
  Pool<kFpAlus> fp_alu_;
  Pool<kFpMulDivs> fp_muldiv_;
  Pool<kMemPorts> mem_ports_;
};

}  // namespace icr::cpu
