#include "src/obs/exposition.h"

#include <algorithm>

#include "src/util/json.h"

namespace icr::obs {
namespace {

std::string render_labels(const PromLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += prom_sanitize_name(key);
    out += "=\"";
    out += prom_escape_label(value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string prom_sanitize_name(const std::string& name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  if (name[0] >= '0' && name[0] <= '9') out += '_';
  for (char c : name) {
    bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

std::string prom_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void MetricsText::family(const std::string& name, const std::string& help,
                         const std::string& type) {
  if (std::find(declared_.begin(), declared_.end(), name) != declared_.end()) {
    return;
  }
  declared_.push_back(name);
  text_ += "# HELP " + name + ' ' + help + '\n';
  text_ += "# TYPE " + name + ' ' + type + '\n';
}

void MetricsText::sample(const std::string& name, const PromLabels& labels,
                         double value) {
  text_ +=
      name + render_labels(labels) + ' ' + util::exact_double(value) + '\n';
}

void MetricsText::sample(const std::string& name, const PromLabels& labels,
                         std::uint64_t value) {
  text_ += name + render_labels(labels) + ' ' + std::to_string(value) + '\n';
}

void MetricsText::histogram(const std::string& name, const std::string& help,
                            const Log2Histogram& hist, const PromLabels& labels,
                            double scale) {
  family(name, help + " (bucket sums are lower-bound estimates)", "histogram");
  std::uint64_t cumulative = 0;
  double sum_estimate = 0.0;
  for (std::uint32_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    std::uint64_t count = hist.bucket(b);
    cumulative += count;
    sum_estimate += static_cast<double>(count) *
                    static_cast<double>(Log2Histogram::bucket_lower_bound(b)) *
                    scale;
    if (count == 0 && b != Log2Histogram::kOverflowBucket) continue;
    PromLabels le = labels;
    if (b == Log2Histogram::kOverflowBucket) {
      le.emplace_back("le", "+Inf");
    } else {
      // Bucket b holds values < bucket_lower_bound(b + 1).
      double upper =
          static_cast<double>(Log2Histogram::bucket_lower_bound(b + 1)) * scale;
      le.emplace_back("le", util::exact_double(upper));
    }
    sample(name + "_bucket", le, cumulative);
  }
  // +Inf cumulative must equal _count even when the overflow bucket is empty.
  if (cumulative != hist.total()) {
    PromLabels le = labels;
    le.emplace_back("le", "+Inf");
    sample(name + "_bucket", le, hist.total());
  }
  sample(name + "_sum", labels, sum_estimate);
  sample(name + "_count", labels, hist.total());
}

void append_registry(MetricsText& out, const StatRegistry& registry,
                     const std::string& prefix, const PromLabels& labels) {
  const auto counters = registry.snapshot_counters();
  for (std::size_t i = 0; i < registry.counter_names().size(); ++i) {
    std::string name = prefix + '_' + prom_sanitize_name(registry.counter_names()[i]);
    out.family(name, "stat-registry counter " + registry.counter_names()[i],
               "counter");
    out.sample(name, labels, counters[i]);
  }
  const auto gauges = registry.snapshot_gauges();
  for (std::size_t i = 0; i < registry.gauge_names().size(); ++i) {
    std::string name = prefix + '_' + prom_sanitize_name(registry.gauge_names()[i]);
    out.family(name, "stat-registry gauge " + registry.gauge_names()[i], "gauge");
    out.sample(name, labels, gauges[i]);
  }
  for (const auto& hist_name : registry.histogram_names()) {
    const Log2Histogram* hist = registry.find_histogram(hist_name);
    if (hist == nullptr) continue;
    out.histogram(prefix + '_' + prom_sanitize_name(hist_name),
                  "stat-registry histogram " + hist_name, *hist, labels);
  }
}

void append_prof_zones(MetricsText& out, const std::vector<prof::ZoneNode>& zones,
                       const std::string& prefix, const PromLabels& labels) {
  if (zones.empty()) return;
  const std::string self = prefix + "_self_seconds";
  const std::string calls = prefix + "_calls";
  out.family(self, "profiler zone self time", "gauge");
  out.family(calls, "profiler zone call count", "gauge");
  for (const auto& zone : zones) {
    PromLabels zl = labels;
    zl.emplace_back("zone", zone.path);
    out.sample(self, zl, static_cast<double>(zone.self_ns) * 1e-9);
    out.sample(calls, zl, zone.count);
  }
}

std::string sse_event(std::uint64_t id, const std::string& data,
                      const std::string& event) {
  std::string out = "id: " + std::to_string(id) + '\n';
  if (!event.empty()) out += "event: " + event + '\n';
  out += "data: " + data + "\n\n";
  return out;
}

// The dashboard is one self-contained page (no external assets): it polls
// /status every 2s for the tiles + worker table and subscribes to /events
// (the browser EventSource handles Last-Event-ID resume) to build the
// unit-latency histogram from publish events. Palette and rules follow the
// repo dataviz conventions: one accent hue for the single-series histogram,
// status colors only next to their text label, light/dark from
// prefers-color-scheme.
std::string dashboard_html() {
  return R"HTML(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>icr fleet</title>
<style>
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --accent: #2a78d6; --good: #0ca30c; --warning: #fab219;
  --serious: #ec835a; --critical: #d03b3b; --line: #e4e3df;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --accent: #3987e5; --line: #33322f;
  }
}
body { margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
       font: 14px/1.45 ui-sans-serif, system-ui, sans-serif; }
h1 { font-size: 18px; margin: 0 0 4px; }
.sub { color: var(--ink2); margin-bottom: 20px; }
.pill { display: inline-block; padding: 1px 10px; border-radius: 10px;
        border: 1px solid var(--line); color: var(--ink2); font-size: 12px; }
.pill .dot { display: inline-block; width: 8px; height: 8px;
             border-radius: 4px; margin-right: 6px; background: var(--muted); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile { border: 1px solid var(--line); border-radius: 8px; padding: 12px 16px;
        min-width: 130px; }
.tile .k { color: var(--muted); font-size: 12px; }
.tile .v { font-size: 24px; font-variant-numeric: tabular-nums; }
.bar { height: 6px; background: var(--line); border-radius: 3px;
       margin-top: 8px; overflow: hidden; }
.bar > div { height: 100%; background: var(--accent); border-radius: 3px;
             width: 0; transition: width .5s; }
h2 { font-size: 14px; color: var(--ink2); margin: 24px 0 8px; }
table { border-collapse: collapse; width: 100%; max-width: 900px; }
th { text-align: left; color: var(--muted); font-weight: 500; font-size: 12px;
     border-bottom: 1px solid var(--line); padding: 4px 12px 4px 0; }
td { padding: 4px 12px 4px 0; border-bottom: 1px solid var(--line);
     font-variant-numeric: tabular-nums; }
td.state .dot { display: inline-block; width: 8px; height: 8px;
                border-radius: 4px; margin-right: 6px; }
.hist { max-width: 640px; }
.hrow { display: flex; align-items: center; gap: 8px; margin: 2px 0; }
.hrow .lbl { width: 110px; color: var(--ink2); font-size: 12px;
             text-align: right; font-variant-numeric: tabular-nums; }
.hrow .track { flex: 1; height: 14px; }
.hrow .fill { height: 100%; background: var(--accent); border-radius: 4px;
              min-width: 0; }
.hrow .n { width: 48px; color: var(--ink2); font-size: 12px;
           font-variant-numeric: tabular-nums; }
.empty { color: var(--muted); }
footer { margin-top: 28px; color: var(--muted); font-size: 12px; }
footer a { color: var(--accent); }
</style>
</head>
<body>
<h1>icr fleet <span id="pill" class="pill"><span class="dot"></span><span id="pilltext">connecting</span></span></h1>
<div class="sub" id="sub">waiting for /status …</div>
<div class="tiles">
  <div class="tile" style="min-width:220px"><div class="k">progress</div>
    <div class="v"><span id="pct">–</span>%</div>
    <div class="bar"><div id="pctbar"></div></div></div>
  <div class="tile"><div class="k" id="donek">done</div><div class="v" id="done">–</div></div>
  <div class="tile"><div class="k">rate</div><div class="v" id="rate">–</div></div>
  <div class="tile"><div class="k">ETA</div><div class="v" id="eta">–</div></div>
  <div class="tile"><div class="k">elapsed</div><div class="v" id="elapsed">–</div></div>
  <div class="tile" id="wtile" hidden><div class="k">workers</div><div class="v" id="wsummary">–</div></div>
</div>
<div id="workerblock" hidden>
<h2>workers</h2>
<table><thead><tr>
  <th>worker</th><th>state</th><th>heartbeat</th><th>units</th><th>cells</th>
  <th>cells/s</th><th>MIPS</th><th>rss</th>
</tr></thead><tbody id="workers"></tbody></table>
</div>
<div id="histblock" hidden>
<h2>unit latency (ms, log2 buckets, from publish events)</h2>
<div class="hist" id="hist"><div class="empty">no publish events yet</div></div>
</div>
<footer>endpoints: <a href="/status">/status</a> · <a href="/metrics">/metrics</a>
 · <a href="/events">/events</a> · <a href="/healthz">/healthz</a></footer>
<script>
"use strict";
const $ = id => document.getElementById(id);
const stateColor = { running: "var(--good)", straggler: "var(--warning)",
                     dead: "var(--critical)", exited: "var(--muted)" };
function fmtDur(s) {
  if (!(s >= 0)) return "–";
  if (s < 60) return s.toFixed(s < 10 ? 1 : 0) + "s";
  if (s < 3600) return (s / 60).toFixed(1) + "m";
  return (s / 3600).toFixed(1) + "h";
}
function fmtN(n) {
  return n >= 1e6 ? (n / 1e6).toFixed(2) + "M"
       : n >= 1e4 ? (n / 1e3).toFixed(1) + "k" : String(n);
}
function setPill(text, color) {
  $("pilltext").textContent = text;
  document.querySelector("#pill .dot").style.background = color;
}
function render(lines) {
  const recs = lines.filter(Boolean).map(JSON.parse);
  const farm = recs.find(r => r.type === "farm" || r.type === "campaign" ||
                              r.type === "sim");
  if (!farm) return;
  const total = farm.total_cells ?? farm.cells_total ?? farm.instructions_total ?? 0;
  const done = farm.cells_done ?? farm.instructions_done ?? 0;
  $("sub").textContent = "schema " + (farm.schema ?? 1) + " · " + farm.type +
    (farm.scheme ? " · " + farm.scheme + "/" + farm.app : "");
  $("pct").textContent = (farm.percent ?? 0).toFixed(1);
  $("pctbar").style.width = Math.min(100, farm.percent ?? 0) + "%";
  $("donek").textContent = farm.type === "sim" ? "instructions" : "cells";
  $("done").textContent = fmtN(done) + " / " + fmtN(total);
  $("rate").textContent = farm.type === "sim"
    ? (farm.mips ?? 0).toFixed(2) + " MIPS"
    : (farm.cells_per_second ?? 0).toFixed(2) + "/s";
  $("eta").textContent = farm.eta_seconds >= 0 ? fmtDur(farm.eta_seconds) : "–";
  $("elapsed").textContent = fmtDur(farm.elapsed_seconds);
  if (farm.type === "farm") {
    $("wtile").hidden = false;
    $("wsummary").textContent = (farm.running ?? 0) + " up";
    $("histblock").hidden = false;
  }
  if (farm.complete || farm.finished) setPill("complete", "var(--good)");
  else if ((farm.dead ?? 0) > 0) setPill((farm.dead) + " dead", "var(--critical)");
  else if ((farm.straggler ?? 0) > 0)
    setPill((farm.straggler) + " straggling", "var(--warning)");
  else setPill("live", "var(--good)");
  const workers = recs.filter(r => r.type === "worker");
  if (workers.length) {
    $("workerblock").hidden = false;
    $("workers").innerHTML = workers.map(w => {
      const color = stateColor[w.state] || "var(--muted)";
      return "<tr><td>" + w.worker + "</td>" +
        '<td class="state"><span class="dot" style="background:' + color +
        '"></span>' + w.state + "</td>" +
        "<td>" + fmtDur(Math.max(0, w.age_seconds)) + " ago</td>" +
        "<td>" + w.units_done + "</td><td>" + fmtN(w.cells_done) + "</td>" +
        "<td>" + (w.cells_per_second ?? 0).toFixed(2) + "</td>" +
        "<td>" + (w.mips ?? 0).toFixed(2) + "</td>" +
        "<td>" + fmtN(w.maxrss_kb ?? 0) + "K</td></tr>";
    }).join("");
  }
}
async function poll() {
  try {
    const res = await fetch("/status");
    render((await res.text()).split("\n"));
  } catch (e) { setPill("unreachable", "var(--critical)"); }
}
poll();
setInterval(poll, 2000);
// Unit-latency histogram built from publish events (log2 ms buckets).
const buckets = new Map();
let histDirty = false;
function drawHist() {
  if (!histDirty) return;
  histDirty = false;
  const keys = [...buckets.keys()].sort((a, b) => a - b);
  const max = Math.max(...buckets.values());
  $("hist").innerHTML = keys.map(k => {
    const n = buckets.get(k);
    const lo = k < 0 ? 0 : Math.pow(2, k);
    const hi = Math.pow(2, k + 1);
    return '<div class="hrow"><div class="lbl">' + lo + "–" + hi +
      '</div><div class="track"><div class="fill" style="width:' +
      (100 * n / max).toFixed(1) + '%"></div></div><div class="n">' + n +
      "</div></div>";
  }).join("") || '<div class="empty">no publish events yet</div>';
}
try {
  const es = new EventSource("/events");
  es.onmessage = ev => {
    try {
      const e = JSON.parse(ev.data);
      if (e.type === "publish" && e.dur > 0) {
        const ms = e.dur * 1000;
        const k = ms < 1 ? -1 : Math.floor(Math.log2(ms));
        buckets.set(k, (buckets.get(k) || 0) + 1);
        histDirty = true;
      }
    } catch (err) { /* non-JSON frame */ }
  };
  es.addEventListener("drained", () => es.close());
  setInterval(drawHist, 1000);
} catch (e) { /* EventSource unavailable */ }
</script>
</body>
</html>
)HTML";
}

}  // namespace icr::obs
