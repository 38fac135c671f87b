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

#include "src/obs/prof.h"

namespace icr::obs::prof {

// Serializes `profile` as a Chrome trace-event JSON array. Every event
// carries pid 1; span timestamps are microseconds since the capture epoch.
[[nodiscard]] std::string to_chrome_trace(const Profile& profile,
                                          const std::string& process_name);

// Rebuilds the zone table (and capture metadata) from a Chrome trace
// written by to_chrome_trace: zones are rebuilt by path (counts, total and
// self time). Zone spans ("cat":"zone") are counted but not retained;
// other spans are ignored. Throws std::runtime_error on malformed JSON or
// a non-array document.
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
