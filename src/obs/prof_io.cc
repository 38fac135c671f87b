#include "src/obs/prof_io.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "src/util/json.h"
#include "src/util/table.h"

namespace icr::obs::prof {

using Layout = util::JsonWriter::Layout;

namespace {

std::string format_ms(std::uint64_t ns) {
  return format_double(static_cast<double>(ns) / 1e6, 3);
}

// Every event of a capture carries this process id.
constexpr std::int64_t kPid = 1;

// Opens one compact "ph":"M" metadata event as the next element of a
// Chrome trace array and leaves its "args" object open: write the args
// members, then end() both objects.
void begin_metadata_event(util::JsonWriter& json, std::string_view name,
                          std::uint64_t tid) {
  json.begin_object().field("name", name).field("ph", "M");
  json.field("pid", kPid).field("tid", tid).key("args").begin_object();
}

}  // namespace

std::string to_chrome_trace(const Profile& profile,
                            const std::string& process_name) {
  std::string out;
  util::JsonWriter json(out, /*indent=*/0);
  json.begin_array(Layout::kBlock);
  begin_metadata_event(json, "process_name", 0);
  json.field("name", process_name).end().end();
  for (std::uint32_t t = 0; t < profile.threads; ++t) {
    begin_metadata_event(json, "thread_name", t);
    json.field("name", "worker " + std::to_string(t)).end().end();
  }

  // Capture-level metadata: wall time, thread count and ring drops.
  begin_metadata_event(json, "icr_capture", 0);
  json.field("wall_ns", profile.wall_ns).field("threads", profile.threads);
  json.field("dropped_events", profile.dropped_events).end().end();

  // The aggregated zone table (covers spans the ring dropped).
  for (const ZoneNode& zone : profile.zones) {
    begin_metadata_event(json, "icr_zone_stats", 0);
    json.field("path", zone.path).field("zone", zone.name);
    json.field("depth", zone.depth).field("count", zone.count);
    json.field("total_ns", zone.total_ns).field("self_ns", zone.self_ns);
    json.end().end();
  }

  for (const SpanEvent& event : profile.events) {
    const double start_us = static_cast<double>(event.start_ns) / 1000.0;
    json.begin_object().field("name", event.name).field("cat", "zone");
    json.field("ph", "X").field("pid", kPid).field("tid", event.tid);
    json.field("ts", util::Micros{start_us});
    json.field("dur", util::Micros{static_cast<double>(event.dur_ns) / 1000.0});
    if (!event.label.empty()) {
      json.key("args").begin_object().field("label", event.label).end();
    }
    json.end();
  }
  json.end();
  return out;
}

ParsedTrace parse_chrome_trace(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  if (!doc.is_array()) {
    throw std::runtime_error("profile trace: top-level JSON array expected");
  }
  // Rebuild the zone table by path through the recorder's own tree.
  // Storing total - self as child time makes flatten() give back the self
  // time.
  ParsedTrace parsed;
  ZoneTree root;
  for (const util::JsonValue& event : doc.items()) {
    const std::string& ph = event.get("ph").as_string();
    const std::string& name = event.get("name").as_string();
    const util::JsonValue& args = event.get("args");
    if (ph == "X" && event.get("cat").as_string() == "zone") {
      ++parsed.span_events;
    } else if (ph == "M" && name == "icr_capture") {
      parsed.profile.wall_ns = args.get("wall_ns").as_int<std::uint64_t>();
      parsed.profile.threads = args.get("threads").as_int<std::uint32_t>();
      parsed.profile.dropped_events =
          args.get("dropped_events").as_int<std::uint64_t>();
    } else if (ph == "M" && name == "icr_zone_stats") {
      ZoneTree* node = &root;
      const std::string& path = args.get("path").as_string();
      for (std::size_t begin = 0; begin <= path.size();) {
        const std::size_t slash = std::min(path.find('/', begin), path.size());
        node = &node->children[path.substr(begin, slash - begin)];
        begin = slash + 1;
      }
      const std::uint64_t total = args.get("total_ns").as_int<std::uint64_t>();
      node->count += args.get("count").as_int<std::uint64_t>();
      node->total_ns += total;
      node->child_ns +=
          total - std::min(total, args.get("self_ns").as_int<std::uint64_t>());
    }
  }
  parsed.profile.zones = root.flatten();
  return parsed;
}

namespace {

// Re-links the flat DFS zone list into a tree (parent precedes children,
// depth gives nesting) so siblings can be displayed hottest-first.
struct DisplayNode {
  const ZoneNode* zone = nullptr;
  std::vector<std::size_t> children;
};

void emit_rows(const std::vector<DisplayNode>& nodes, std::size_t index,
               std::uint64_t denom, TextTable& table) {
  const ZoneNode& zone = *nodes[index].zone;
  const double self_pct =
      denom == 0 ? 0.0
                 : 100.0 * static_cast<double>(zone.self_ns) /
                       static_cast<double>(denom);
  const double ns_per_call =
      zone.count == 0 ? 0.0
                      : static_cast<double>(zone.total_ns) /
                            static_cast<double>(zone.count);
  table.add_row({std::string(static_cast<std::size_t>(zone.depth) * 2, ' ') +
                     zone.name,
                 std::to_string(zone.count), format_ms(zone.total_ns),
                 format_ms(zone.self_ns), format_double(self_pct, 1),
                 format_double(ns_per_call, 0)});
  std::vector<std::size_t> order = nodes[index].children;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return nodes[a].zone->self_ns > nodes[b].zone->self_ns;
                   });
  for (const std::size_t child : order) {
    emit_rows(nodes, child, denom, table);
  }
}

}  // namespace

std::string format_self_time_table(const Profile& profile) {
  std::vector<DisplayNode> nodes(profile.zones.size());
  std::vector<std::size_t> roots;
  std::vector<std::size_t> stack;  // indices of the current ancestor chain
  for (std::size_t i = 0; i < profile.zones.size(); ++i) {
    const ZoneNode& zone = profile.zones[i];
    nodes[i].zone = &zone;
    while (stack.size() > static_cast<std::size_t>(zone.depth)) {
      stack.pop_back();
    }
    if (stack.empty()) {
      roots.push_back(i);
    } else {
      nodes[stack.back()].children.push_back(i);
    }
    stack.push_back(i);
  }

  const std::uint64_t total_self = profile.total_self_ns();
  TextTable table(
      "host profile — " + std::to_string(profile.zones.size()) + " zones, " +
          std::to_string(profile.threads) + " thread(s), wall " +
          format_ms(profile.wall_ns) + " ms",
      {"zone", "calls", "total ms", "self ms", "self %", "ns/call"});

  std::vector<std::size_t> order = roots;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return nodes[a].zone->self_ns > nodes[b].zone->self_ns;
                   });
  for (const std::size_t root : order) {
    emit_rows(nodes, root, total_self, table);
  }
  table.add_row({"(instrumented total)", "-", format_ms(total_self),
                 format_ms(total_self), "100.0", "-"});
  if (profile.dropped_events > 0) {
    table.add_row({"(dropped trace events)",
                   std::to_string(profile.dropped_events), "-", "-", "-",
                   "-"});
  }
  return table.render();
}

}  // namespace icr::obs::prof
