// Dynamic energy accounting for the L1/L2 data hierarchy (paper §4.1, §5.8,
// §5.9).
//
// Per-access energies follow CACTI 3.0 for the Table-1 geometries at a
// 0.18um-class process (the paper's vintage):
//   16KB 4-way 64B L1 ....... ~0.40 nJ / access
//   256KB 4-way 64B L2 ...... ~4.00 nJ / access
// The absolute values matter less than the L2:L1 ratio (~10x), which CACTI
// gives for these sizes and which drives the paper's write-through result
// (Fig. 16(b)). Parity and ECC computation energies are expressed as a
// fraction of the L1 access energy, exactly the way the paper sweeps them
// in Fig. 17 (parity 10-15%, ECC 30%).
#pragma once

#include <cstdint>

#include "src/util/counter_table.h"

namespace icr::energy {

struct EnergyParams {
  double l1_access_nj = 0.40;
  double l2_access_nj = 4.00;
  // Check-computation energy as a fraction of one L1 access.
  double parity_fraction = 0.15;
  double ecc_fraction = 0.30;
};

// Raw event counts gathered from the caches after a run.
struct EnergyEvents {
  std::uint64_t l1_reads = 0;
  std::uint64_t l1_writes = 0;
  std::uint64_t l2_reads = 0;
  std::uint64_t l2_writes = 0;
  std::uint64_t parity_computations = 0;
  std::uint64_t ecc_computations = 0;

  static constexpr util::CounterRow<EnergyEvents> kCounters[] = {
      {"l1_reads", &EnergyEvents::l1_reads},
      {"l1_writes", &EnergyEvents::l1_writes},
      {"l2_reads", &EnergyEvents::l2_reads},
      {"l2_writes", &EnergyEvents::l2_writes},
      {"parity_computations", &EnergyEvents::parity_computations},
      {"ecc_computations", &EnergyEvents::ecc_computations},
  };
};
static_assert(util::table_covers<EnergyEvents>());

struct EnergyBreakdown {
  double l1_nj = 0.0;
  double l2_nj = 0.0;
  double parity_nj = 0.0;
  double ecc_nj = 0.0;

  [[nodiscard]] double total_nj() const noexcept {
    return l1_nj + l2_nj + parity_nj + ecc_nj;
  }
};

class EnergyModel {
 public:
  explicit EnergyModel(EnergyParams params = {}) noexcept : params_(params) {}

  [[nodiscard]] EnergyBreakdown evaluate(const EnergyEvents& events) const;

  [[nodiscard]] const EnergyParams& params() const noexcept { return params_; }

 private:
  EnergyParams params_;
};

}  // namespace icr::energy
