// Tier-2 validation harness: the synthetic workload generators against a
// real (checked-in, QEMU-log-imported) trace, per scheme, on the metrics
// the paper's figures rest on — dL1 miss rate and replication coverage.
// The point is not that synthetic and imported traces agree numerically
// (they model different programs) but that the replay path drives every
// scheme into the same sane operating envelope the generators do, and that
// the importer itself is bit-deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/core/scheme.h"
#include "src/sim/simulator.h"
#include "src/trace/qemu_import.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"

namespace icr {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

std::string fixture_log() {
  return std::string(ICR_TEST_DATA_DIR) + "/qemu_mm_log.txt";
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// The schemes the comparison sweeps: plain parity, the strongest
// parity-protected ICR variant, and an ECC-protected ICR variant.
struct SchemeCase {
  const char* name;
  core::Scheme scheme;
};

std::vector<SchemeCase> scheme_cases() {
  return {{"BaseP", core::Scheme::BaseP()},
          {"ICR-P-PS(S)", core::Scheme::IcrPPS_S()},
          {"ICR-ECC-PP(LS)", core::Scheme::IcrEccPP_LS()}};
}

TEST(TraceValidation, ImportIsBitDeterministic) {
  const std::string out_a = temp_path("mm_a.icrt");
  const std::string out_b = temp_path("mm_b.icrt");
  const trace::ImportStats stats_a =
      trace::import_qemu_log(fixture_log(), out_a);
  const trace::ImportStats stats_b =
      trace::import_qemu_log(fixture_log(), out_b);
  EXPECT_EQ(stats_a.records, stats_b.records);
  EXPECT_EQ(read_file(out_a), read_file(out_b));

  // Pinned provenance of the checked-in fixture: any change to the import
  // pipeline (parsing, branch classification, register synthesis, delta
  // codec) that alters the produced stream shows up here first.
  const trace::TraceInfo info = trace::validate_trace(out_a);
  EXPECT_EQ(info.records, 2945u);
  EXPECT_EQ(info.fingerprint, 0x5bdb8470ebc882bcULL);
  EXPECT_EQ(stats_a.loads, 1024u);
  EXPECT_EQ(stats_a.stores, 128u);
  EXPECT_EQ(stats_a.branches, 576u);
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
}

TEST(TraceValidation, ImportedTraceDrivesEverySchemeLikeTheGenerators) {
  const std::string imported = temp_path("mm_run.icrt");
  (void)trace::import_qemu_log(fixture_log(), imported);
  const trace::TraceInfo info = trace::probe_trace(imported);
  // Replay less than the trace holds: the pipeline fetches ahead of the
  // commit target and must not wrap to the trace start (docs/TRACES.md).
  const std::uint64_t budget = info.records - 400;

  const sim::SimConfig config = sim::SimConfig::table1();
  for (const SchemeCase& test_case : scheme_cases()) {
    SCOPED_TRACE(test_case.name);

    // Imported-trace replay.
    sim::Simulator replay(
        config, test_case.scheme,
        std::make_unique<trace::StreamingTraceSource>(imported), "mm");
    const sim::RunResult real = replay.run(budget);

    // Synthetic generator of comparable size.
    sim::Simulator synthetic(config, test_case.scheme,
                             trace::profile_for(trace::App::kGzip));
    const sim::RunResult synth = synthetic.run(budget);

    // Both sources must land every scheme in a sane operating envelope:
    // the caches actually miss (and actually hit), and ICR schemes
    // actually replicate, on real access patterns as on synthetic ones.
    EXPECT_GT(real.dl1.miss_rate(), 0.0);
    EXPECT_LT(real.dl1.miss_rate(), 0.5);
    EXPECT_GT(synth.dl1.miss_rate(), 0.0);
    EXPECT_LT(synth.dl1.miss_rate(), 0.5);
    EXPECT_GT(real.cycles, budget / 4);
    if (test_case.scheme.replication_enabled) {
      EXPECT_GT(real.dl1.replication_opportunities, 0u);
      EXPECT_GT(real.dl1.replication_ability(), 0.0);
      EXPECT_LE(real.dl1.replication_ability(), 1.0);
      EXPECT_GT(synth.dl1.replication_ability(), 0.0);
    }

    // And the replay itself is deterministic: a second pass over the same
    // file reproduces every counter bit for bit.
    sim::Simulator rerun(
        config, test_case.scheme,
        std::make_unique<trace::StreamingTraceSource>(imported), "mm");
    EXPECT_EQ(sim::counter_vector(rerun.run(budget)),
              sim::counter_vector(real));
  }
  std::remove(imported.c_str());
}

}  // namespace
}  // namespace icr
