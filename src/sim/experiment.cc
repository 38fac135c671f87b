#include "src/sim/experiment.h"

#include "src/sim/campaign.h"

namespace icr::sim {

RunResult run_one(trace::App app, const core::Scheme& scheme,
                  const SimConfig& config, std::uint64_t instructions) {
  if (instructions == 0) instructions = default_instruction_count();
  Simulator simulator(config, scheme, trace::profile_for(app));
  return simulator.run(instructions);
}

std::vector<std::vector<RunResult>> run_matrix(
    const std::vector<SchemeVariant>& variants,
    const std::vector<trace::App>& apps, const SimConfig& config,
    std::uint64_t instructions) {
  // One single-trial campaign without seed derivation: cells keep the
  // calibrated workload seeds and config.fault_seed, so every figure's
  // numbers match the old sequential loop bit for bit — the campaign
  // engine only adds parallelism.
  CampaignSpec spec;
  spec.variants = variants;
  spec.apps = apps;
  spec.config = config;
  spec.instructions = instructions;
  const CampaignResult campaign = CampaignRunner().run(spec);

  std::vector<std::vector<RunResult>> matrix(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<RunResult>& row = matrix[v];
    row.reserve(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a) {
      row.push_back(campaign.at(v, a, 0, apps.size(), 1).result);
    }
  }
  return matrix;
}

}  // namespace icr::sim
