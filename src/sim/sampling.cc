#include "src/sim/sampling.h"

#include <algorithm>

#include "src/obs/prof.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace icr::sim {
namespace {

// Warmup clamped so at least one kMinWindowWidth window (or the whole
// budget, if smaller) stays measurable.
std::uint64_t clamped_warmup(std::uint64_t budget,
                             const SamplingOptions& options) {
  const std::uint64_t min_measure = std::min(budget, kMinWindowWidth);
  return std::min(options.warmup_instructions, budget - min_measure);
}

// Midpoint boundaries: window j represents [b_j, b_j+1) where b_0 = 0,
// interior boundaries bisect the gaps, b_k = budget. The spans therefore
// partition [0, budget) exactly, which is what makes the weighted
// reconstruction of a piecewise-constant metric exact and the single
// full-width window carry weight exactly 1.0.
void assign_spans(std::vector<SampleWindow>& windows, std::uint64_t budget) {
  std::uint64_t boundary = 0;
  for (std::size_t j = 0; j < windows.size(); ++j) {
    const std::uint64_t next = j + 1 < windows.size()
                                   ? (windows[j].end + windows[j + 1].begin) / 2
                                   : budget;
    windows[j].span = next - boundary;
    boundary = next;
  }
}

}  // namespace

const char* to_string(SampleMode mode) noexcept {
  switch (mode) {
    case SampleMode::kSystematic:
      return "systematic";
    case SampleMode::kRandom:
      return "random";
  }
  return "unknown";
}

std::vector<SampleWindow> plan_windows(std::uint64_t budget,
                                       const SamplingOptions& options) {
  std::vector<SampleWindow> windows;
  if (budget == 0) return windows;
  const std::uint64_t begin = clamped_warmup(budget, options);
  const std::uint64_t region = budget - begin;

  if (options.windows == 0) {
    // Warmup-only: one window over everything after the checkpoint.
    windows.push_back({begin, budget, budget});
    return windows;
  }

  std::uint64_t width = options.window_width;
  if (width == 0) width = region / (10 * std::uint64_t{options.windows});
  width = std::max(width, kMinWindowWidth);
  width = std::min(width, region);
  // Prefer dropping windows over shrinking them below the requested width.
  std::uint64_t count = options.windows;
  if (count > region / width) count = std::max<std::uint64_t>(1, region / width);

  Rng rng(options.seed);
  const std::uint64_t slack = region - count * width;
  if (options.mode == SampleMode::kRandom) {
    // Sorted cuts in [0, slack] shifted by j*width: sorted, non-overlapping
    // and in-budget by construction.
    std::vector<std::uint64_t> cuts(count);
    for (auto& c : cuts) c = rng.next_below(slack + 1);
    std::sort(cuts.begin(), cuts.end());
    for (std::uint64_t j = 0; j < count; ++j) {
      const std::uint64_t start = begin + cuts[j] + j * width;
      windows.push_back({start, start + width, 0});
    }
  } else {
    // Even (Bresenham) starts: stride floor(region/count) >= width, so
    // windows never overlap and the last one ends inside the budget.
    for (std::uint64_t j = 0; j < count; ++j) {
      const std::uint64_t start = begin + (j * region) / count;
      windows.push_back({start, start + width, 0});
    }
  }
  assign_spans(windows, budget);
  return windows;
}

SamplingController::SamplingController(Simulator& simulator,
                                       const SamplingOptions& options)
    : simulator_(simulator), options_(options) {}

SampledRunResult SamplingController::run(std::uint64_t budget) {
  ICR_PROF_ZONE("SamplingController::run");
  SampledRunResult out;
  out.provenance.budget = budget;
  if (!options_.enabled() || budget == 0) {
    // Passthrough: exactly what the caller would have done without a
    // controller, result untouched (bit-identity guarded by tier-1 test).
    out.estimate = simulator_.run(budget);
    out.provenance.measured_instructions = budget;
    return out;
  }

  // Positions below are relative to where this simulation already is, so a
  // controller can drive a simulator that has run before.
  const std::uint64_t origin = simulator_.result().instructions;
  out.windows = plan_windows(budget, options_);
  out.provenance.sampled = true;
  out.provenance.warmup_instructions = clamped_warmup(budget, options_);

  std::vector<RunResult> deltas;
  std::vector<double> weights;
  for (const SampleWindow& w : out.windows) {
    std::uint64_t pos = simulator_.result().instructions - origin;
    if (pos < w.begin) simulator_.fast_forward(w.begin - pos);
    const RunResult before = simulator_.result();
    pos = before.instructions - origin;
    if (pos < w.end) (void)simulator_.run(w.end - pos);
    const RunResult after = simulator_.result();
    // The detailed->functional drain can overshoot a boundary; a window it
    // swallowed whole (possible only below kMinWindowWidth) measures
    // nothing and must not contribute a zero delta.
    if (after.instructions == before.instructions) continue;
    deltas.push_back(subtract_counters(after, before));
    weights.push_back(static_cast<double>(w.span) /
                      static_cast<double>(w.width()));
    out.provenance.measured_instructions +=
        after.instructions - before.instructions;
    ++out.provenance.windows;
  }
  // Cover the tail so decay/fault/scrub state reflects the whole budget
  // and back-to-back controller runs resume from the right position.
  const std::uint64_t pos = simulator_.result().instructions - origin;
  if (pos < budget) simulator_.fast_forward(budget - pos);

  ICR_CHECK(!deltas.empty());  // planner guarantees measurable windows
  out.estimate = reconstruct_weighted(deltas, weights);
  // Counter reconstruction scales energy_events; re-price them so the
  // energy breakdown matches the estimated event counts.
  out.estimate.energy = energy::EnergyModel(simulator_.config().energy)
                            .evaluate(out.estimate.energy_events);
  return out;
}

}  // namespace icr::sim
