// Degraded-geometry figure matrix (docs/GEOMETRY.md): the decay-window
// question under way failure. Disabling ways removes replication sites the
// same way a shorter decay window removes dead candidates, so the paper's
// window sweep (Fig. 10/11) is re-run per degraded geometry: rows are
// (size, assoc, disabled-way) points, columns decay windows, cells the
// replication ability of ICR-P-PS(S) averaged over apps — plus the argmax
// column showing whether the best window shifts as capacity degrades.
// Expected shape: smaller effective capacity raises set pressure, so dead
// candidates appear sooner and the ability-maximizing window moves left
// (shorter) while overall ability drops.
#include "bench/common/bench_common.h"

using namespace icr;

namespace {

struct GeometryPoint {
  std::string label;
  mem::CacheGeometry geometry;
  std::uint32_t disabled;
};

std::vector<GeometryPoint> matrix() {
  std::vector<GeometryPoint> points;
  const struct {
    std::uint32_t size;
    std::uint32_t assoc;
  } geometries[] = {{16 * 1024, 4}, {8 * 1024, 4}, {16 * 1024, 2},
                    {8 * 1024, 2}};
  for (const auto& g : geometries) {
    for (std::uint32_t k : {0u, 1u, 2u}) {
      if (k >= g.assoc) continue;  // at least one way must stay enabled
      points.push_back({std::to_string(g.size / 1024) + "K/" +
                            std::to_string(g.assoc) + "w d" +
                            std::to_string(k),
                        {g.size, 64, g.assoc},
                        k});
    }
  }
  return points;
}

double mean_metric(
    const core::Scheme& scheme, const GeometryPoint& point,
    const std::function<double(const sim::RunResult&)>& metric) {
  sim::SimConfig config = sim::SimConfig::table1();
  config.dl1 = point.geometry;
  config.dl1_way_disable = {};
  config.dl1_way_disable.count = point.disabled;
  const auto apps = {trace::App::kGzip, trace::App::kMcf,
                     trace::App::kVortex};
  double sum = 0.0;
  int n = 0;
  for (const trace::App app : apps) {
    sum += metric(sim::run_one(app, scheme, config));
    ++n;
  }
  return sum / n;
}

}  // namespace

int main(int argc, char** argv) {
  icr::bench::init(argc, argv);
  bench::print_header(
      "degraded geometry",
      "Decay-window sweep per degraded dL1 geometry, ICR-P-PS(S), averaged "
      "over gzip/mcf/vortex — does the best window shift as ways fail?");

  const std::vector<std::uint64_t> windows = {0, 500, 1000, 2000, 5000};

  std::vector<std::string> header = {"geometry"};
  for (const std::uint64_t w : windows) header.push_back("w=" + std::to_string(w));
  header.push_back("best");

  TextTable ability("replication ability vs decay window", header);
  for (const GeometryPoint& point : matrix()) {
    std::vector<double> row;
    std::size_t best = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const core::Scheme scheme =
          core::Scheme::IcrPPS_S().with_decay_window(windows[i]);
      row.push_back(mean_metric(scheme, point, [](const sim::RunResult& r) {
        return r.dl1.replication_ability();
      }));
      if (row[i] > row[best]) best = i;
    }
    std::vector<std::string> cells = {point.label};
    for (const double v : row) cells.push_back(format_double(v, 3));
    cells.push_back("w=" + std::to_string(windows[best]));
    ability.add_row(std::move(cells));
  }
  ability.print();
  std::printf("\n");

  // Scheme cross-check at the aggressive window: degraded capacity hits
  // every replicating scheme, the L-variants hardest (they must also hold
  // the displaced loads).
  TextTable schemes(
      "replication ability at window 0, by scheme",
      {"geometry", "ICR-P-PS(S)", "ICR-ECC-PS(S)", "ICR-P-PP(S)"});
  for (const GeometryPoint& point : matrix()) {
    schemes.add_numeric_row(
        point.label,
        {mean_metric(core::Scheme::IcrPPS_S(), point,
                     [](const sim::RunResult& r) {
                       return r.dl1.replication_ability();
                     }),
         mean_metric(core::Scheme::IcrEccPS_S(), point,
                     [](const sim::RunResult& r) {
                       return r.dl1.replication_ability();
                     }),
         mean_metric(core::Scheme::IcrPPP_S(), point,
                     [](const sim::RunResult& r) {
                       return r.dl1.replication_ability();
                     })});
  }
  schemes.print();
  return 0;
}
