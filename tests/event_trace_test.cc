#include "src/obs/event_trace.h"

#include <gtest/gtest.h>

#include "src/obs/obs_io.h"
#include "src/util/json.h"

namespace icr::obs {
namespace {

TEST(EventTrace, RetainsInOrderBelowCapacity) {
  EventTrace trace(kAllCategories, 8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.emit(EventKind::kReplicaCreate, /*cycle=*/i, /*a0=*/i * 64);
  }
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].cycle, i);
    EXPECT_EQ(events[i].a0, i * 64);
  }
  EXPECT_EQ(trace.emitted(), 5u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(EventTrace, RingWrapKeepsMostRecentAndCountsDropped) {
  EventTrace trace(kAllCategories, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    trace.emit(EventKind::kReplicaEvict, i);
  }
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: cycles 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].cycle, 6 + i);
  }
  EXPECT_EQ(trace.emitted(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
}

TEST(EventTrace, CategoryFiltering) {
  EventTrace trace(category_bit(EventCategory::kFault), 16);
  EXPECT_TRUE(trace.wants(EventCategory::kFault));
  EXPECT_FALSE(trace.wants(EventCategory::kReplication));
  EXPECT_FALSE(trace.wants(EventCategory::kEviction));
  EXPECT_FALSE(trace.wants(EventCategory::kDecay));
}

TEST(EventTrace, CategoryOfKind) {
  EXPECT_EQ(category_of(EventKind::kReplicationAttempt),
            EventCategory::kReplication);
  EXPECT_EQ(category_of(EventKind::kReplicaCreate),
            EventCategory::kReplication);
  EXPECT_EQ(category_of(EventKind::kReplicaEvict), EventCategory::kEviction);
  EXPECT_EQ(category_of(EventKind::kDeadBlockRecycle), EventCategory::kDecay);
  EXPECT_EQ(category_of(EventKind::kFaultInject), EventCategory::kFault);
  EXPECT_EQ(category_of(EventKind::kFaultVerdict), EventCategory::kFault);
}

TEST(EventTrace, ParseCategoryList) {
  EXPECT_EQ(parse_category_list("all"), kAllCategories);
  EXPECT_EQ(parse_category_list("replication"),
            category_bit(EventCategory::kReplication));
  EXPECT_EQ(parse_category_list("replication,fault"),
            category_bit(EventCategory::kReplication) |
                category_bit(EventCategory::kFault));
  EXPECT_EQ(parse_category_list("eviction,decay"),
            category_bit(EventCategory::kEviction) |
                category_bit(EventCategory::kDecay));
  EXPECT_EQ(parse_category_list(""), 0u);
  EXPECT_EQ(parse_category_list("bogus"), 0u);
  EXPECT_EQ(parse_category_list("replication,bogus"), 0u);
}

// Golden NDJSON shapes — the schema documented in docs/OBSERVABILITY.md.
// A change here is a breaking change for downstream consumers.
TEST(EventTrace, NdjsonGoldenLines) {
  const CellTag tag{"ICR-P-PS(S)", "mcf", 2};

  std::string out;
  append_ndjson(out, {TraceEvent{100, EventKind::kReplicaCreate, 0x40, 3, 32}},
                tag);
  EXPECT_EQ(out,
            "{\"variant\":\"ICR-P-PS(S)\",\"app\":\"mcf\",\"trial\":2,"
            "\"cycle\":100,\"cat\":\"replication\",\"event\":\"replica_create\","
            "\"block\":\"0x0000000000000040\",\"set\":3,\"distance\":32}\n");

  out.clear();
  append_ndjson(
      out,
      {TraceEvent{7, EventKind::kFaultVerdict, 0x1234,
                  static_cast<std::uint64_t>(FaultVerdict::kReplicaRecovered),
                  0}},
      tag);
  EXPECT_EQ(out,
            "{\"variant\":\"ICR-P-PS(S)\",\"app\":\"mcf\",\"trial\":2,"
            "\"cycle\":7,\"cat\":\"fault\",\"event\":\"verdict\","
            "\"addr\":\"0x0000000000001234\",\"outcome\":\"replica_recovered\""
            "}\n");

  out.clear();
  append_ndjson(out, {TraceEvent{9, EventKind::kFaultInject, 5, 1, 2}}, tag);
  EXPECT_EQ(out,
            "{\"variant\":\"ICR-P-PS(S)\",\"app\":\"mcf\",\"trial\":2,"
            "\"cycle\":9,\"cat\":\"fault\",\"event\":\"inject\","
            "\"set\":5,\"way\":1,\"bits\":2}\n");
}

// Cell labels come from user input (a replayed trace's file name becomes
// the app label), so every line must stay valid JSON whatever they hold.
TEST(EventTrace, NdjsonEscapesCellLabels) {
  const CellTag tag{"ICR \"P\" \\ PS", "dir\\a\"b\x01.icrt", 3};
  std::string out;
  append_ndjson(out,
                {TraceEvent{1, EventKind::kReplicaCreate, 0x40, 3, 32},
                 TraceEvent{2, EventKind::kFaultInject, 5, 1, 2}},
                tag);
  std::size_t lines = 0;
  std::size_t begin = 0;
  for (std::size_t end = out.find('\n'); end != std::string::npos;
       begin = end + 1, end = out.find('\n', begin)) {
    const util::JsonValue line =
        util::JsonValue::parse(out.substr(begin, end - begin));
    EXPECT_EQ(line.get("variant").as_string(), tag.variant);
    EXPECT_EQ(line.get("app").as_string(), tag.app);
    EXPECT_EQ(line.get("trial").as_double(), 3.0);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(begin, out.size());
}

TEST(EventTrace, VerdictStrings) {
  EXPECT_STREQ(to_string(FaultVerdict::kCorrected), "corrected");
  EXPECT_STREQ(to_string(FaultVerdict::kReplicaRecovered),
               "replica_recovered");
  EXPECT_STREQ(to_string(FaultVerdict::kDetectedUncorrectable),
               "detected_uncorrectable");
  EXPECT_STREQ(to_string(FaultVerdict::kSilent), "silent");
}

}  // namespace
}  // namespace icr::obs
