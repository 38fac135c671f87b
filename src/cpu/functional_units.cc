#include "src/cpu/functional_units.h"

namespace icr::cpu {

void FunctionalUnits::extend_mem_port(std::uint64_t cycle,
                                      std::uint32_t total_busy) {
  for (auto& free_at : mem_ports_.busy_until) {
    if (free_at == cycle + 1) {  // the port claimed this cycle
      free_at = cycle + total_busy;
      return;
    }
  }
}

bool FunctionalUnits::try_issue(trace::OpClass op, std::uint64_t cycle,
                                std::uint32_t& latency) {
  using trace::OpClass;
  switch (op) {
    case OpClass::kIntAlu:
    case OpClass::kBranch:  // branches resolve on an integer ALU
      latency = kIntAluLatency;
      return int_alu_.claim(cycle, 1);  // pipelined
    case OpClass::kIntMul:
      latency = kIntMulLatency;
      return int_muldiv_.claim(cycle, 1);  // pipelined multiplier
    case OpClass::kIntDiv:
      latency = kIntDivLatency;
      return int_muldiv_.claim(cycle, latency);  // unpipelined divider
    case OpClass::kFpAlu:
      latency = kFpAluLatency;
      return fp_alu_.claim(cycle, 1);
    case OpClass::kFpMul:
      latency = kFpMulLatency;
      return fp_muldiv_.claim(cycle, 1);
    case OpClass::kFpDiv:
      latency = kFpDivLatency;
      return fp_muldiv_.claim(cycle, latency);
    case OpClass::kLoad:
    case OpClass::kStore:
      latency = 0;  // memory latency supplied by the cache model
      return mem_ports_.claim(cycle, 1);
  }
  return false;
}

}  // namespace icr::cpu
