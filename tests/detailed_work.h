// The deterministic half of what interval sampling promises: a sampled run
// does its coverage's share of the detailed work and no more, so
// fast-forward can never quietly run the detailed core. The host-time
// speed-up follows from this, but it is a ratio of two noisy host costs
// and is not asserted in tests (docs/SAMPLING.md gives measured figures).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "src/sim/sampling.h"

namespace icr::test {

// Most instructions the Table-1 core holds in flight (16-entry fetch queue,
// 16-entry RUU, one fetch stalled on an L1I miss): the bound on the
// detailed work a detailed -> functional switch adds, and on how far a
// window can overshoot its width.
inline constexpr std::uint64_t kInFlightBound = 16 + 16 + 1;

// `sampled` ran `width`-instruction windows; its pipeline spent
// `detailed_cycles` cycles in the detailed core (windows and drains,
// Pipeline::detailed_cycles). `full` is the unsampled run of the same cell.
// Detailed instructions lie in [windows x width, windows x (width +
// in-flight bound)], and detailed cycles lie within `cycles_tolerance` of
// coverage x the full run's cycles, plus the in-flight bound per window at
// the full run's CPI.
inline void expect_detailed_share(const sim::SampledRunResult& sampled,
                                  std::uint64_t detailed_cycles,
                                  const sim::RunResult& full,
                                  std::uint64_t width, double cycles_tolerance,
                                  const std::string& what) {
  const sim::SampleProvenance& p = sampled.provenance;
  ASSERT_TRUE(p.sampled) << what;
  EXPECT_GE(p.measured_instructions, p.windows * width) << what;
  EXPECT_LE(p.measured_instructions, p.windows * (width + kInFlightBound))
      << what;

  const double cpi = static_cast<double>(full.cycles) /
                     static_cast<double>(full.instructions);
  const double expected = p.coverage() * static_cast<double>(full.cycles);
  const double slack = cycles_tolerance * expected +
                       static_cast<double>(p.windows * kInFlightBound) * cpi;
  EXPECT_LE(std::abs(static_cast<double>(detailed_cycles) - expected), slack)
      << what << ": " << detailed_cycles << " detailed cycles, expected "
      << expected << " (coverage " << p.coverage() << " of " << full.cycles
      << ")";
}

}  // namespace icr::test
