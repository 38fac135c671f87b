// Host profiler (src/obs/prof.h): zone nesting, cross-thread merge
// determinism, snapshots during recording, span-ring wrap accounting,
// Chrome trace round-trip, and the tier-1 guard that
// profiling never perturbs simulation results.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/prof.h"
#include "src/obs/prof_io.h"
#include "src/sim/experiment.h"
#include "src/sim/results_io.h"
#include "src/util/thread_pool.h"

namespace prof = icr::obs::prof;

namespace {

// Each iteration stores to a volatile sink, so the loop cannot be optimised
// away. The sink is per thread: threads writing one shared volatile would
// race.
thread_local volatile int burn_sink = 0;

void burn(int iterations) {
  for (int i = 0; i < iterations; ++i) burn_sink = i;
}

TEST(ProfTest, OffByDefaultAndZonesAreInert) {
  ASSERT_FALSE(prof::capturing());
  {
    ICR_PROF_ZONE("never_recorded");
    ICR_PROF_ZONE("never_recorded_nested");
  }
  prof::begin_capture();
  const prof::Profile profile = prof::end_capture();
  EXPECT_TRUE(profile.zones.empty());
  EXPECT_TRUE(profile.events.empty());
  EXPECT_FALSE(prof::capturing());
}

TEST(ProfTest, NestedZonesAggregateByPath) {
  prof::begin_capture();
  {
    ICR_PROF_ZONE("outer");
    for (int i = 0; i < 3; ++i) {
      ICR_PROF_ZONE("inner");
      ICR_PROF_ZONE("leaf");
      burn(100);
    }
  }
  const prof::Profile profile = prof::end_capture();

  ASSERT_EQ(profile.zones.size(), 3u);
  // DFS order: parent precedes child.
  EXPECT_EQ(profile.zones[0].path, "outer");
  EXPECT_EQ(profile.zones[1].path, "outer/inner");
  EXPECT_EQ(profile.zones[2].path, "outer/inner/leaf");
  EXPECT_EQ(profile.zones[0].depth, 0);
  EXPECT_EQ(profile.zones[1].depth, 1);
  EXPECT_EQ(profile.zones[2].depth, 2);
  EXPECT_EQ(profile.zones[0].count, 1u);
  EXPECT_EQ(profile.zones[1].count, 3u);
  EXPECT_EQ(profile.zones[2].count, 3u);

  // Inclusive time dominates children; self = total - instrumented kids.
  const prof::ZoneNode* outer = profile.find("outer");
  const prof::ZoneNode* inner = profile.find("outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  EXPECT_LE(profile.total_self_ns(), profile.wall_ns);
}

TEST(ProfTest, SameNameDifferentParentsStaysDistinct) {
  prof::begin_capture();
  {
    ICR_PROF_ZONE("a");
    { ICR_PROF_ZONE("shared"); }
  }
  {
    ICR_PROF_ZONE("b");
    { ICR_PROF_ZONE("shared"); }
  }
  const prof::Profile profile = prof::end_capture();
  EXPECT_NE(profile.find("a/shared"), nullptr);
  EXPECT_NE(profile.find("b/shared"), nullptr);
  EXPECT_EQ(profile.find("shared"), nullptr);
}

// The merged zone table must not depend on which threads ran what or in
// which order: same work on 1 thread and on 4 yields identical structure.
TEST(ProfTest, ThreadMergeIsDeterministic) {
  const auto run_capture = [](unsigned workers) {
    icr::util::ThreadPool pool(workers);
    prof::begin_capture();
    icr::util::parallel_for(pool, 16, [](std::size_t i) {
      ICR_PROF_ZONE("task");
      if (i % 2 == 0) {
        ICR_PROF_ZONE("even");
        burn(50);
      } else {
        ICR_PROF_ZONE("odd");
        burn(50);
      }
    });
    return prof::end_capture();
  };

  const prof::Profile serial = run_capture(1);
  const prof::Profile parallel = run_capture(4);

  ASSERT_EQ(serial.zones.size(), parallel.zones.size());
  for (std::size_t i = 0; i < serial.zones.size(); ++i) {
    EXPECT_EQ(serial.zones[i].path, parallel.zones[i].path);
    EXPECT_EQ(serial.zones[i].depth, parallel.zones[i].depth);
    EXPECT_EQ(serial.zones[i].count, parallel.zones[i].count);
  }
  EXPECT_EQ(serial.find("task")->count, 16u);
  EXPECT_EQ(serial.find("task/even")->count, 8u);
  EXPECT_EQ(serial.find("task/odd")->count, 8u);
}

// Four threads record labelled zones while this thread reads the table:
// every snapshot is consistent, the final counts are exact, and each span
// keeps its own thread and label.
TEST(ProfTest, SnapshotWhileThreadsRecord) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kZonesPerThread = 500;
  prof::begin_capture();
  std::atomic<bool> done{false};
  std::thread recorder([&done] {
    icr::util::parallel_for(
        icr::util::ThreadPool(kThreads - 1), kThreads, [](std::size_t t) {
          for (std::uint64_t i = 0; i < kZonesPerThread; ++i) {
            ICR_PROF_ZONE_LABELED(
                "work", std::to_string(t) + "/" + std::to_string(i));
            ICR_PROF_ZONE("inner");
          }
        });
    done.store(true);
  });
  std::uint64_t last_work = 0;
  while (!done.load()) {
    std::uint64_t work = 0;
    std::uint64_t inner = 0;
    for (const prof::ZoneNode& zone : prof::snapshot_zones()) {
      if (zone.path == "work") work = zone.count;
      if (zone.path == "work/inner") inner = zone.count;
    }
    // "inner" closes before its "work": at most one open "work" per thread
    // has a closed "inner".
    EXPECT_GE(work, last_work);
    EXPECT_GE(inner, work);
    EXPECT_LE(inner, work + kThreads);
    last_work = work;
  }
  recorder.join();
  const prof::Profile profile = prof::end_capture();

  ASSERT_NE(profile.find("work"), nullptr);
  ASSERT_NE(profile.find("work/inner"), nullptr);
  EXPECT_EQ(profile.find("work")->count, kThreads * kZonesPerThread);
  EXPECT_EQ(profile.find("work/inner")->count, kThreads * kZonesPerThread);
  EXPECT_GE(profile.threads, 1u);
  EXPECT_LE(profile.threads, kThreads);
  ASSERT_EQ(profile.events.size(), 2 * kThreads * kZonesPerThread);

  std::set<std::string> labels;
  std::map<std::string, std::uint32_t> tid_of_index;
  for (const prof::SpanEvent& event : profile.events) {
    EXPECT_LT(event.tid, profile.threads);
    if (event.name == "inner") {
      EXPECT_EQ(event.label, "");
      EXPECT_EQ(event.depth, 1u);
      continue;
    }
    ASSERT_EQ(event.name, "work");
    EXPECT_EQ(event.depth, 0u);
    labels.insert(event.label);
    // One index runs entirely on one thread, so its spans share a tid.
    const std::string index = event.label.substr(0, event.label.find('/'));
    EXPECT_EQ(tid_of_index.emplace(index, event.tid).first->second,
              event.tid)
        << event.label;
  }
  EXPECT_EQ(labels.size(), kThreads * kZonesPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kZonesPerThread; ++i) {
      EXPECT_EQ(labels.count(std::to_string(t) + "/" + std::to_string(i)),
                1u);
    }
  }
}

TEST(ProfTest, EventRingKeepsMostRecentAndCountsDrops) {
  constexpr std::size_t kZones = prof::kSpanCapacity + 12;
  prof::begin_capture();
  for (std::size_t i = 0; i < kZones; ++i) {
    ICR_PROF_ZONE_LABELED("span", std::to_string(i));
  }
  const prof::Profile profile = prof::end_capture();
  ASSERT_EQ(profile.events.size(), prof::kSpanCapacity);
  EXPECT_EQ(profile.dropped_events, 12u);
  // Aggregation is unaffected by the ring: every call still counted.
  ASSERT_NE(profile.find("span"), nullptr);
  EXPECT_EQ(profile.find("span")->count, kZones);
  // The ring keeps the most recent spans, oldest first.
  EXPECT_EQ(profile.events.front().label, "12");
  EXPECT_EQ(profile.events.back().label, std::to_string(kZones - 1));
  for (std::size_t i = 1; i < profile.events.size(); ++i) {
    EXPECT_GE(profile.events[i].start_ns, profile.events[i - 1].start_ns);
  }
}

TEST(ProfTest, LabeledZonesRetainLabels) {
  prof::begin_capture();
  {
    ICR_PROF_ZONE_LABELED("cell", std::string("BaseP/mcf/0"));
  }
  const prof::Profile profile = prof::end_capture();
  ASSERT_EQ(profile.events.size(), 1u);
  EXPECT_EQ(profile.events[0].name, "cell");
  EXPECT_EQ(profile.events[0].label, "BaseP/mcf/0");
}

TEST(ProfIoTest, ChromeTraceRoundTrip) {
  prof::begin_capture();
  {
    ICR_PROF_ZONE("outer");
    ICR_PROF_ZONE_LABELED("cell", std::string("with \"quotes\""));
    ICR_PROF_ZONE("leaf");
    burn(100);
  }
  const prof::Profile profile = prof::end_capture();
  const std::string trace = prof::to_chrome_trace(profile, "prof_test");

  // Chrome trace-event format: a top-level JSON array.
  EXPECT_EQ(trace.front(), '[');
  const prof::ParsedTrace parsed = prof::parse_chrome_trace(trace);
  EXPECT_EQ(parsed.span_events, profile.events.size());
  EXPECT_EQ(parsed.profile.wall_ns, profile.wall_ns);
  EXPECT_EQ(parsed.profile.threads, profile.threads);
  ASSERT_EQ(parsed.profile.zones.size(), profile.zones.size());
  for (std::size_t i = 0; i < profile.zones.size(); ++i) {
    EXPECT_EQ(parsed.profile.zones[i].path, profile.zones[i].path);
    EXPECT_EQ(parsed.profile.zones[i].count, profile.zones[i].count);
    EXPECT_EQ(parsed.profile.zones[i].total_ns, profile.zones[i].total_ns);
    EXPECT_EQ(parsed.profile.zones[i].self_ns, profile.zones[i].self_ns);
  }

  const std::string table = prof::format_self_time_table(parsed.profile);
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("leaf"), std::string::npos);
  EXPECT_NE(table.find("instrumented total"), std::string::npos);
}

// Tier-1 guard: profiling observes the simulation, never perturbs it. A
// run with a capture live must produce bit-identical metrics to runs
// without, and prof-off runs are deterministic to begin with.
TEST(ProfTest, CaptureNeverChangesRunResults) {
  const icr::core::Scheme scheme = icr::core::Scheme::IcrPPS_S();
  const auto run = [&] {
    return icr::sim::run_one(icr::trace::App::kGzip, scheme,
                             icr::sim::SimConfig::table1(), 20000);
  };

  const std::vector<double> off_a = icr::sim::metric_values(run());
  const std::vector<double> off_b = icr::sim::metric_values(run());
  EXPECT_EQ(off_a, off_b) << "prof-off runs must be bit-identical";

  prof::begin_capture();
  const std::vector<double> on = icr::sim::metric_values(run());
  const prof::Profile profile = prof::end_capture();
  EXPECT_EQ(off_a, on) << "a live capture must not change any metric";

  // Sanity: the capture did see the simulator's zones.
  EXPECT_NE(profile.find("Simulator::run"), nullptr);
  EXPECT_NE(profile.find("Simulator::run/Pipeline::run"), nullptr);
}

// Zones sit only on coarse paths: a probe costs more than a cache access or
// a pipeline cycle, so a zone inside either would time mostly itself. One
// detailed run therefore records each zone at most once.
TEST(ProfTest, SimulatorCaptureHasNoPerAccessZones) {
  prof::begin_capture();
  (void)icr::sim::run_one(icr::trace::App::kGcc,
                          icr::core::Scheme::IcrPPS_S(),
                          icr::sim::SimConfig::table1(), 20000);
  const prof::Profile profile = prof::end_capture();

  const prof::ZoneNode* run = profile.find("Simulator::run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 1u);
  for (const prof::ZoneNode& zone : profile.zones) {
    EXPECT_LE(zone.count, 1u) << zone.path;
  }
}

}  // namespace
