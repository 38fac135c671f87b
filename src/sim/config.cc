#include "src/sim/config.h"

#include <cstdlib>
#include <optional>

#include "src/sim/cli.h"

namespace icr::sim {

std::uint64_t default_instruction_count() {
  if (const char* env = std::getenv("ICR_SIM_INSTRUCTIONS")) {
    const std::optional<std::uint64_t> n = cli::parse_u64(env);
    if (n && *n > 0) return *n;
  }
  return 1'000'000;
}

}  // namespace icr::sim
