// The configurable part of a simulated system. The core (widths, RUU, LSQ,
// functional units, branch predictor) is fixed at the paper's Table 1 and
// has no settings: its values are constants in src/cpu. What varies is what
// the paper and its extensions sweep: the dL1 geometry and disabled ways
// (§5.7, degraded geometry), the L1I/L2/memory hierarchy, the energy
// parameters (Fig. 17), fault injection and the R-Cache baseline.
#pragma once

#include <cstdint>

#include "src/energy/energy_model.h"
#include "src/fault/fault_injector.h"
#include "src/mem/cache_geometry.h"
#include "src/mem/memory_hierarchy.h"

namespace icr::sim {

struct SimConfig {
  mem::HierarchyConfig hierarchy;                     // L1I/L2/memory
  mem::CacheGeometry dl1 = mem::l1d_geometry_default();  // 16KB 4-way 64B
  // Degraded-geometry mode: faulty dL1 ways masked out of allocation and
  // replication-site search (docs/GEOMETRY.md). Default: none disabled.
  mem::WayDisableConfig dl1_way_disable;

  energy::EnergyParams energy;

  fault::FaultModel fault_model = fault::FaultModel::kRandom;
  double fault_probability = 0.0;  // per-cycle injection probability
  std::uint64_t fault_seed = 0x5EED;

  // Kim&Somani duplication-buffer baseline: 0 = disabled, otherwise the
  // number of word entries in the attached R-Cache.
  std::uint32_t rcache_entries = 0;

  // The Table-1 defaults (constructed members already match the paper).
  [[nodiscard]] static SimConfig table1() { return SimConfig{}; }
};

// Number of instructions benches simulate per (app, scheme) point.
// Overridable with the ICR_SIM_INSTRUCTIONS environment variable; the paper
// ran 500M, our synthetic workloads converge within ~1M (see DESIGN.md).
[[nodiscard]] std::uint64_t default_instruction_count();

}  // namespace icr::sim
