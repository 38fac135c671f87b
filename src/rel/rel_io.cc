#include "src/rel/rel_io.h"

#include <cstdio>

#include "src/util/json.h"

namespace icr::rel {
namespace {

void append_tag(std::string& out, const obs::CellTag& tag) {
  out += tag.variant;
  out += ',';
  out += tag.app;
  out += ',';
  out += std::to_string(tag.trial);
}

}  // namespace

std::string summary_csv_header() {
  std::string header =
      "variant,app,trial,supported,cycles,clock_ghz,probability,word_cycles,"
      "total_exposure";
  for (std::size_t s = 0; s < kRelStates; ++s) {
    header += ",exp_";
    header += to_string(static_cast<RelState>(s));
  }
  header +=
      ",coef_corrected,coef_replica_recovered,coef_detected_uncorrectable,"
      "coef_silent,coef_scrub,coef_unobserved,coef_deposited,open_exposure,"
      "pending_residual,vf_corrected,vf_replica_recovered,"
      "vf_detected_uncorrectable,vf_uncorrected,expected_corrected,"
      "expected_replica_recovered,expected_detected_uncorrectable,"
      "expected_silent\n";
  return header;
}

void append_summary_csv_row(std::string& out, const RelReport& report,
                            const obs::CellTag& tag) {
  append_tag(out, tag);
  out += ',';
  out += report.model_supported ? '1' : '0';
  out += ',';
  out += std::to_string(report.cycles);
  out += ',';
  out += util::exact_double(report.clock_ghz);
  out += ',';
  out += util::exact_double(report.probability);
  out += ',';
  out += util::exact_double(report.word_cycles);
  out += ',';
  out += util::exact_double(report.total_exposure);
  for (std::size_t s = 0; s < kRelStates; ++s) {
    out += ',';
    out += util::exact_double(report.state_exposure[s]);
  }
  const RelPrediction expected = report.evaluate(report.probability);
  const double values[] = {report.corrected_coef,
                           report.replica_coef,
                           report.detected_coef,
                           report.silent_coef,
                           report.scrub_coef,
                           report.unobserved_coef,
                           report.deposited_coef,
                           report.open_exposure,
                           report.pending_residual,
                           report.vf_corrected(),
                           report.vf_replica_recovered(),
                           report.vf_detected_uncorrectable(),
                           report.vf_uncorrected(),
                           expected.corrected,
                           expected.replica_recovered,
                           expected.detected_uncorrectable,
                           expected.silent};
  for (const double v : values) {
    out += ',';
    out += util::exact_double(v);
  }
  out += '\n';
}

std::string intervals_csv_header() {
  return "variant,app,trial,start,end,state,count,cycles,exposure\n";
}

void append_intervals_csv_rows(std::string& out, const RelReport& report,
                               const obs::CellTag& tag) {
  for (const IntervalClassRow& row : report.intervals) {
    append_tag(out, tag);
    out += ',';
    out += to_string(row.start);
    out += ',';
    out += to_string(row.end);
    out += ',';
    out += to_string(row.state);
    out += ',';
    out += std::to_string(row.count);
    out += ',';
    out += util::exact_double(row.cycles);
    out += ',';
    out += util::exact_double(row.exposure);
    out += '\n';
  }
}

std::string intervals_to_csv(const RelReport& report,
                             const obs::CellTag& tag) {
  std::string out = intervals_csv_header();
  append_intervals_csv_rows(out, report, tag);
  return out;
}

void append_json(util::JsonWriter& json, const RelReport& report,
                 const obs::CellTag& tag) {
  using Layout = util::JsonWriter::Layout;
  json.begin_object(Layout::kBlock).field("variant", tag.variant);
  json.field("app", tag.app).field("trial", tag.trial);
  json.field("supported", report.model_supported);
  json.field("cycles", report.cycles).field("clock_ghz", report.clock_ghz);
  json.field("probability", report.probability);
  json.field("word_cycles", report.word_cycles);
  json.field("total_exposure", report.total_exposure);
  json.key("state_exposure").begin_object(Layout::kInline);
  for (std::size_t s = 0; s < kRelStates; ++s) {
    json.field(to_string(static_cast<RelState>(s)), report.state_exposure[s]);
  }
  json.end();
  json.field("coef_corrected", report.corrected_coef);
  json.field("coef_replica_recovered", report.replica_coef);
  json.field("coef_detected_uncorrectable", report.detected_coef);
  json.field("coef_silent", report.silent_coef);
  json.field("coef_scrub", report.scrub_coef);
  json.field("coef_unobserved", report.unobserved_coef);
  json.field("coef_deposited", report.deposited_coef);
  json.field("open_exposure", report.open_exposure);
  json.field("pending_residual", report.pending_residual);
  json.field("vf_corrected", report.vf_corrected());
  json.field("vf_replica_recovered", report.vf_replica_recovered());
  json.field("vf_detected_uncorrectable", report.vf_detected_uncorrectable());
  json.field("vf_uncorrected", report.vf_uncorrected());
  const RelPrediction expected = report.evaluate(report.probability);
  json.field("expected_corrected", expected.corrected);
  json.field("expected_replica_recovered", expected.replica_recovered);
  json.field("expected_detected_uncorrectable",
             expected.detected_uncorrectable);
  json.field("expected_silent", expected.silent);
  // An empty interval table prints as "[]", not as an empty block.
  json.key("intervals").begin_array(
      report.intervals.empty() ? Layout::kInline : Layout::kBlock);
  for (const IntervalClassRow& row : report.intervals) {
    json.begin_object(Layout::kInline).field("start", to_string(row.start));
    json.field("end", to_string(row.end));
    json.field("state", to_string(row.state)).field("count", row.count);
    json.field("cycles", row.cycles).field("exposure", row.exposure).end();
  }
  json.end().end();
}

std::string format_report(const RelReport& report) {
  char buffer[256];
  std::string out;
  out += "analytical reliability model";
  if (!report.model_supported) out += "  [fault model unsupported]";
  out += '\n';
  std::snprintf(buffer, sizeof buffer,
                "  cycles %llu  word-cycles %.4g  total exposure %.6g\n",
                static_cast<unsigned long long>(report.cycles),
                report.word_cycles, report.total_exposure);
  out += buffer;
  out += "  exposure by protection state:\n";
  for (std::size_t s = 0; s < kRelStates; ++s) {
    if (report.state_cycles[s] == 0.0 && report.state_exposure[s] == 0.0) {
      continue;
    }
    const double share = report.total_exposure > 0.0
                             ? report.state_exposure[s] / report.total_exposure
                             : 0.0;
    std::snprintf(buffer, sizeof buffer, "    %-17s %12.6g  (%5.1f%%)\n",
                  to_string(static_cast<RelState>(s)),
                  report.state_exposure[s], 100.0 * share);
    out += buffer;
  }
  out += "  first-order outcome coefficients (E[count] = coef * p):\n";
  const struct {
    const char* name;
    double coef;
    double vf;
    bool has_vf;
  } rows[] = {
      {"corrected", report.corrected_coef, report.vf_corrected(), true},
      {"replica_recovered", report.replica_coef,
       report.vf_replica_recovered(), true},
      {"detected_uncorrectable", report.detected_coef,
       report.vf_detected_uncorrectable(), true},
      // Silent counts verdicts (one per consuming load of a wrong value),
      // not absorbed strikes, so an exposure-normalized factor is
      // ill-defined for it.
      {"silent", report.silent_coef, 0.0, false},
  };
  for (const auto& row : rows) {
    if (row.has_vf) {
      std::snprintf(buffer, sizeof buffer, "    %-23s %12.6g  vf %.4f\n",
                    row.name, row.coef, row.vf);
    } else {
      std::snprintf(buffer, sizeof buffer, "    %-23s %12.6g\n", row.name,
                    row.coef);
    }
    out += buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "    %-23s %12.6g  (uncorrected vf %.4f)\n", "deposited_to_l2",
                report.deposited_coef, report.vf_uncorrected());
  out += buffer;
  if (report.scrub_coef != 0.0) {
    std::snprintf(buffer, sizeof buffer, "    %-23s %12.6g\n", "scrubbed",
                  report.scrub_coef);
    out += buffer;
  }
  if (report.probability > 0.0) {
    const RelPrediction e = report.evaluate(report.probability);
    const RelPrediction fit = report.fit(report.probability);
    std::snprintf(buffer, sizeof buffer,
                  "  expected outcomes at p=%.3g per cycle:\n",
                  report.probability);
    out += buffer;
    std::snprintf(buffer, sizeof buffer,
                  "    corrected %.4g  replica %.4g  detected-unc %.4g  "
                  "silent %.4g\n",
                  e.corrected, e.replica_recovered, e.detected_uncorrectable,
                  e.silent);
    out += buffer;
    std::snprintf(buffer, sizeof buffer,
                  "    FIT-style (events/1e9 hours @ %.2f GHz): silent %.4g  "
                  "detected-unc %.4g\n",
                  report.clock_ghz, fit.silent, fit.detected_uncorrectable);
    out += buffer;
  }
  return out;
}

}  // namespace icr::rel
