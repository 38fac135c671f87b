#include "bench/common/bench_json.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/json.h"
#include "src/util/table.h"

namespace icr::bench {

namespace {

Better better_from_string(const std::string& text) {
  if (text == "lower") return Better::kLower;
  if (text == "higher") return Better::kHigher;
  if (text == "none") return Better::kNone;
  throw std::runtime_error("bench json: unknown 'better' direction '" + text +
                           "'");
}

}  // namespace

const char* to_string(Better better) noexcept {
  switch (better) {
    case Better::kLower: return "lower";
    case Better::kHigher: return "higher";
    case Better::kNone: return "none";
  }
  return "none";
}

const BenchMetric* BenchJson::find(const std::string& name) const {
  for (const BenchMetric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string to_json(const BenchJson& doc) {
  using Layout = util::JsonWriter::Layout;
  std::string out;
  util::JsonWriter json(out);
  json.begin_object(Layout::kBlock).field("schema", kBenchJsonSchema);
  json.field("bench", doc.bench).field("git_sha", doc.git_sha);
  json.field("config_hash", doc.config_hash);
  json.field("wall_seconds", doc.wall_seconds).field("mips", doc.mips);
  json.key("metrics").begin_array(Layout::kBlock);
  for (const BenchMetric& metric : doc.metrics) {
    json.begin_object(Layout::kInline).field("name", metric.name);
    json.field("value", metric.value);
    json.field("better", to_string(metric.better));
    if (metric.noise > 0.0) json.field("noise", metric.noise);
    json.end();
  }
  json.end().end();
  return out;
}

BenchJson from_json_text(const std::string& text) {
  const util::JsonValue root = util::JsonValue::parse(text);
  if (!root.is_object()) {
    throw std::runtime_error("bench json: top-level object expected");
  }
  const std::string schema = root.get("schema").as_string();
  if (schema != kBenchJsonSchema) {
    throw std::runtime_error("bench json: schema '" + schema +
                             "' is not '" + kBenchJsonSchema + "'");
  }
  BenchJson doc;
  doc.bench = root.get("bench").as_string();
  if (const util::JsonValue* sha = root.find("git_sha")) {
    doc.git_sha = sha->as_string();
  }
  if (const util::JsonValue* hash = root.find("config_hash")) {
    doc.config_hash = hash->as_string();
  }
  if (const util::JsonValue* wall = root.find("wall_seconds")) {
    doc.wall_seconds = wall->as_double();
  }
  if (const util::JsonValue* mips = root.find("mips")) {
    doc.mips = mips->as_double();
  }
  for (const util::JsonValue& entry : root.get("metrics").items()) {
    BenchMetric metric;
    metric.name = entry.get("name").as_string();
    metric.value = entry.get("value").as_double();
    if (const util::JsonValue* better = entry.find("better")) {
      metric.better = better_from_string(better->as_string());
    }
    if (const util::JsonValue* noise = entry.find("noise")) {
      metric.noise = noise->as_double();
    }
    doc.metrics.push_back(std::move(metric));
  }
  return doc;
}

bool CompareResult::regressed() const {
  if (!missing_in_current.empty()) return true;
  for (const MetricDelta& delta : deltas) {
    if (delta.regressed) return true;
  }
  return false;
}

CompareResult compare(const BenchJson& base, const BenchJson& current,
                      const CompareOptions& options) {
  CompareResult result;
  for (const BenchMetric& b : base.metrics) {
    const BenchMetric* c = current.find(b.name);
    if (c == nullptr) {
      result.missing_in_current.push_back(b.name);
      continue;
    }
    MetricDelta delta;
    delta.name = b.name;
    delta.base = b.value;
    delta.current = c->value;
    delta.better = b.better;
    // The baseline's noise bound wins: the checked-in file is the contract.
    delta.threshold =
        b.noise > 0.0 ? b.noise : options.default_threshold;
    if (b.value != 0.0) {
      delta.rel_change = (c->value - b.value) / std::fabs(b.value);
    } else if (c->value != 0.0) {
      delta.rel_change = std::numeric_limits<double>::infinity();
    }
    if (b.better == Better::kLower) {
      delta.regressed = delta.rel_change > delta.threshold;
      delta.improved = delta.rel_change < -delta.threshold;
    } else if (b.better == Better::kHigher) {
      delta.regressed = delta.rel_change < -delta.threshold;
      delta.improved = delta.rel_change > delta.threshold;
    }
    result.deltas.push_back(delta);
  }
  for (const BenchMetric& c : current.metrics) {
    if (base.find(c.name) == nullptr) {
      result.extra_in_current.push_back(c.name);
    }
  }
  return result;
}

std::string format_compare(const CompareResult& result, const BenchJson& base,
                           const BenchJson& current) {
  TextTable table("bench compare — " + base.bench + " (" + base.git_sha +
                      " -> " + current.git_sha + ")",
                  {"metric", "base", "current", "change %", "noise %",
                   "verdict"});
  for (const MetricDelta& delta : result.deltas) {
    const char* verdict = delta.regressed  ? "REGRESSED"
                          : delta.improved ? "improved"
                          : delta.better == Better::kNone ? "info"
                                                          : "ok";
    table.add_row({delta.name, format_double(delta.base, 4),
                   format_double(delta.current, 4),
                   format_double(100.0 * delta.rel_change, 2),
                   format_double(100.0 * delta.threshold, 1), verdict});
  }
  for (const std::string& name : result.missing_in_current) {
    table.add_row({name, "-", "missing", "-", "-", "REGRESSED"});
  }
  for (const std::string& name : result.extra_in_current) {
    table.add_row({name, "new", format_double(current.find(name)->value, 4),
                   "-", "-", "info"});
  }
  std::string out = table.render();
  out += result.regressed() ? "verdict: REGRESSED\n" : "verdict: ok\n";
  return out;
}

}  // namespace icr::bench
