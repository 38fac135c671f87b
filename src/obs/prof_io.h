// Serialization of host-profiler captures (src/obs/prof.h).
//
// Chrome trace-event format: the export is a top-level JSON *array* of
// events, loadable directly in Perfetto / chrome://tracing:
//   * every retained span becomes a "ph":"X" complete event with
//     "ts"/"dur" in microseconds and "tid" = capture thread index;
//   * thread/process names ride along as "ph":"M" metadata events;
//   * the full aggregated zone table (including zones whose spans the ring
//     dropped) is embedded as one "icr_zone_stats" metadata event per zone,
//     plus one "icr_capture" metadata event with wall time / thread count /
//     drop counters — viewers ignore them, icr_report --prof reads them
//     back, so a single file carries both the timeline and the totals.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/prof.h"
#include "src/util/json.h"

namespace icr::obs::prof {

// Serializes `profile` as a Chrome trace-event JSON array.
//
// `pid` is the process id stamped on every event (defaults to 1 for
// single-process captures). `ts_offset_us` shifts every span timestamp:
// profile timestamps are nanoseconds since the capture epoch, so a farm
// worker passes its epoch as absolute unix microseconds and the spans of
// every worker land on one shared clock — merge_chrome_traces() then
// splices the per-process captures into a single fleet timeline
// (docs/PROFILING.md "Multi-process traces"). The offset is also recorded
// in the icr_capture metadata as "epoch_unix_us".
[[nodiscard]] std::string to_chrome_trace(const Profile& profile,
                                          const std::string& process_name,
                                          std::int64_t pid = 1,
                                          double ts_offset_us = 0.0);

// Opens one compact "ph":"M" metadata event as the next element of a
// Chrome trace array and leaves its "args" object open: write the args
// members, then end() both objects. The farm's fleet trace shares it.
void begin_metadata_event(util::JsonWriter& json, std::string_view name,
                          std::int64_t pid, std::uint64_t tid);

// Splices several Chrome trace-event documents into one JSON array.
// Every input must itself parse as a trace array (validated; throws
// std::runtime_error naming the failing index otherwise); the events are
// concatenated in input order, so give each document a distinct pid for a
// readable merged timeline. Empty arrays contribute nothing.
[[nodiscard]] std::string merge_chrome_traces(
    const std::vector<std::string>& traces);

// Rebuilds the zone table (and capture metadata) from a Chrome trace
// written by to_chrome_trace, or from a merge of several such traces (a
// fleet trace): zones are folded by path (counts, total and self time
// summed), threads and dropped events are summed, and wall_ns is the
// longest capture's. Zone spans ("cat":"zone") are counted but not
// retained; other spans, such as the fleet's unit spans, are ignored.
// Throws std::runtime_error on malformed JSON or a non-array document.
struct ParsedTrace {
  Profile profile;       // zones + wall_ns/threads/dropped; events empty
  std::size_t span_events = 0;
};
[[nodiscard]] ParsedTrace parse_chrome_trace(const std::string& text);

// Renders the zone aggregation as an aligned self-time table: one row per
// zone (indented by depth), sorted within each level by self time; plus a
// footer row with total self vs. measured wall time.
[[nodiscard]] std::string format_self_time_table(const Profile& profile);

}  // namespace icr::obs::prof
