#include "src/obs/obs_io.h"

#include "src/util/json.h"

namespace icr::obs {
namespace {

// Index of `name` in `names`, or npos.
std::size_t index_of(const std::vector<std::string>& names,
                     const char* name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return static_cast<std::size_t>(-1);
}

std::uint64_t delta_at(const IntervalSeries::Sample& prev,
                       const IntervalSeries::Sample& cur, std::size_t index) {
  if (index == static_cast<std::size_t>(-1)) return 0;
  return cur.counters[index] - prev.counters[index];
}

struct DerivedIndices {
  std::size_t loads, load_misses, stores, store_misses, opportunities,
      successes;
};

DerivedIndices derived_indices(const IntervalSeries& series) {
  return DerivedIndices{
      index_of(series.counter_names, "dl1.loads"),
      index_of(series.counter_names, "dl1.load_misses"),
      index_of(series.counter_names, "dl1.stores"),
      index_of(series.counter_names, "dl1.store_misses"),
      index_of(series.counter_names, "dl1.replication.opportunities"),
      index_of(series.counter_names, "dl1.replication.successes"),
  };
}

void append_tag(std::string& out, const CellTag& tag) {
  out += tag.variant;
  out += ',';
  out += tag.app;
  out += ',';
  out += std::to_string(tag.trial);
}

}  // namespace

std::string intervals_csv_header(const IntervalSeries& series) {
  std::string out =
      "variant,app,trial,interval,instr_end,cycles_end,d_instructions,"
      "d_cycles,ipc,dl1_miss_rate,replication_ability";
  for (const std::string& name : series.counter_names) {
    out += ",d_";
    out += name;
  }
  for (const std::string& name : series.gauge_names) {
    out += ',';
    out += name;
  }
  out += '\n';
  return out;
}

void append_intervals_csv_rows(std::string& out, const IntervalSeries& series,
                               const CellTag& tag) {
  const DerivedIndices idx = derived_indices(series);
  for (std::size_t k = 0; k + 1 < series.samples.size(); ++k) {
    const IntervalSeries::Sample& prev = series.samples[k];
    const IntervalSeries::Sample& cur = series.samples[k + 1];
    const std::uint64_t d_instr = cur.instructions - prev.instructions;
    const std::uint64_t d_cycles = cur.cycles - prev.cycles;
    const std::uint64_t accesses = delta_at(prev, cur, idx.loads) +
                                   delta_at(prev, cur, idx.stores);
    const std::uint64_t misses = delta_at(prev, cur, idx.load_misses) +
                                 delta_at(prev, cur, idx.store_misses);
    const std::uint64_t opportunities =
        delta_at(prev, cur, idx.opportunities);
    const std::uint64_t successes = delta_at(prev, cur, idx.successes);

    append_tag(out, tag);
    out += ',' + std::to_string(k);
    out += ',' + std::to_string(cur.instructions);
    out += ',' + std::to_string(cur.cycles);
    out += ',' + std::to_string(d_instr);
    out += ',' + std::to_string(d_cycles);
    out += ',' + util::exact_double(d_cycles == 0 ? 0.0
                                            : static_cast<double>(d_instr) /
                                                  static_cast<double>(d_cycles));
    out += ',' + util::exact_double(accesses == 0
                                  ? 0.0
                                  : static_cast<double>(misses) /
                                        static_cast<double>(accesses));
    out += ',' + util::exact_double(opportunities == 0
                                  ? 0.0
                                  : static_cast<double>(successes) /
                                        static_cast<double>(opportunities));
    for (std::size_t c = 0; c < series.counter_names.size(); ++c) {
      out += ',' + std::to_string(cur.counters[c] - prev.counters[c]);
    }
    for (std::size_t g = 0; g < series.gauge_names.size(); ++g) {
      out += ',' + std::to_string(cur.gauges[g]);
    }
    out += '\n';
  }
}

std::string intervals_to_csv(const IntervalSeries& series,
                             const CellTag& tag) {
  std::string out = intervals_csv_header(series);
  append_intervals_csv_rows(out, series, tag);
  return out;
}

std::string occupancy_csv_header(std::uint32_t sets) {
  std::string out = "variant,app,trial,interval,instr_end";
  for (std::uint32_t s = 0; s < sets; ++s) {
    out += ",set_" + std::to_string(s);
  }
  out += '\n';
  return out;
}

void append_occupancy_csv_rows(std::string& out, const IntervalSeries& series,
                               const CellTag& tag) {
  for (std::size_t k = 0; k + 1 < series.samples.size(); ++k) {
    const IntervalSeries::Sample& cur = series.samples[k + 1];
    append_tag(out, tag);
    out += ',' + std::to_string(k);
    out += ',' + std::to_string(cur.instructions);
    for (const std::uint32_t replicas : cur.occupancy) {
      out += ',' + std::to_string(replicas);
    }
    out += '\n';
  }
}

std::string occupancy_to_csv(const IntervalSeries& series,
                             const CellTag& tag) {
  std::string out = occupancy_csv_header(series.occupancy_sets);
  append_occupancy_csv_rows(out, series, tag);
  return out;
}

void append_ndjson(std::string& out, const std::vector<TraceEvent>& events,
                   const CellTag& tag) {
  util::JsonWriter json(out);
  for (const TraceEvent& e : events) {
    json.begin_object().field("variant", tag.variant).field("app", tag.app);
    json.field("trial", tag.trial).field("cycle", e.cycle);
    json.field("cat", to_string(category_of(e.kind)));
    json.field("event", to_string(e.kind));
    switch (e.kind) {
      case EventKind::kReplicationAttempt:
        json.field("block", util::Hex{e.a0}).field("created", e.a1);
        json.field("target", e.a2);
        break;
      case EventKind::kReplicaCreate:
        json.field("block", util::Hex{e.a0}).field("set", e.a1);
        json.field("distance", e.a2);
        break;
      case EventKind::kReplicaEvict:
        json.field("block", util::Hex{e.a0}).field("set", e.a1);
        break;
      case EventKind::kDeadBlockRecycle:
        json.field("block", util::Hex{e.a0}).field("set", e.a1);
        json.field("idle_cycles", e.a2);
        break;
      case EventKind::kFaultInject:
        json.field("set", e.a0).field("way", e.a1).field("bits", e.a2);
        break;
      case EventKind::kFaultVerdict:
        json.field("addr", util::Hex{e.a0});
        json.field("outcome", to_string(static_cast<FaultVerdict>(e.a1)));
        break;
    }
    json.end();
  }
}

std::vector<IntervalPoint> interval_points(const IntervalSeries& series) {
  const DerivedIndices idx = derived_indices(series);
  std::vector<IntervalPoint> pts;
  for (std::size_t k = 0; k + 1 < series.samples.size(); ++k) {
    const IntervalSeries::Sample& prev = series.samples[k];
    const IntervalSeries::Sample& cur = series.samples[k + 1];
    IntervalPoint p;
    p.instr_end = static_cast<double>(cur.instructions);
    p.d_instructions =
        static_cast<double>(cur.instructions - prev.instructions);
    p.d_cycles = static_cast<double>(cur.cycles - prev.cycles);
    p.ipc = p.d_cycles == 0 ? 0.0 : p.d_instructions / p.d_cycles;
    const double accesses = static_cast<double>(
        delta_at(prev, cur, idx.loads) + delta_at(prev, cur, idx.stores));
    const double misses =
        static_cast<double>(delta_at(prev, cur, idx.load_misses) +
                            delta_at(prev, cur, idx.store_misses));
    p.miss_weight = accesses;
    p.miss_rate = accesses == 0 ? 0.0 : misses / accesses;
    const double opportunities =
        static_cast<double>(delta_at(prev, cur, idx.opportunities));
    const double successes =
        static_cast<double>(delta_at(prev, cur, idx.successes));
    p.replication_weight = opportunities;
    p.replication_ability =
        opportunities == 0 ? 0.0 : successes / opportunities;
    pts.push_back(p);
  }
  return pts;
}

IntervalSummary summarize(const std::vector<IntervalPoint>& pts) {
  IntervalSummary s;
  s.intervals = pts.size();
  if (pts.empty()) return s;
  double ra_num = 0, ra_den = 0, miss_num = 0, miss_den = 0, instr = 0,
         cycles = 0;
  for (const IntervalPoint& p : pts) {
    s.peak_replication_ability =
        std::max(s.peak_replication_ability, p.replication_ability);
    s.peak_miss_rate = std::max(s.peak_miss_rate, p.miss_rate);
    ra_num += p.replication_ability * p.replication_weight;
    ra_den += p.replication_weight;
    miss_num += p.miss_rate * p.miss_weight;
    miss_den += p.miss_weight;
    instr += p.d_instructions;
    cycles += p.d_cycles;
  }
  s.mean_replication_ability = ra_den == 0 ? 0.0 : ra_num / ra_den;
  s.mean_miss_rate = miss_den == 0 ? 0.0 : miss_num / miss_den;
  s.mean_ipc = cycles == 0 ? 0.0 : instr / cycles;
  s.final_replication_ability = pts.back().replication_ability;
  s.final_miss_rate = pts.back().miss_rate;
  return s;
}

std::vector<Phase> segment_phases(const std::vector<IntervalPoint>& pts,
                                  double rel_tolerance,
                                  double abs_tolerance) {
  std::vector<Phase> phases;
  if (pts.empty()) return phases;

  std::size_t first = 0;
  double miss_sum = 0, ra_sum = 0, instr_sum = 0, cycle_sum = 0;
  auto flush = [&](std::size_t last) {
    const double n = static_cast<double>(last - first + 1);
    Phase phase;
    phase.first_interval = first;
    phase.last_interval = last;
    phase.mean_miss_rate = miss_sum / n;
    phase.mean_replication_ability = ra_sum / n;
    phase.mean_ipc = cycle_sum == 0 ? 0.0 : instr_sum / cycle_sum;
    phases.push_back(phase);
  };

  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i > first) {
      const double mean = miss_sum / static_cast<double>(i - first);
      const double tolerance =
          std::max(abs_tolerance, rel_tolerance * mean);
      if (pts[i].miss_rate > mean + tolerance ||
          pts[i].miss_rate < mean - tolerance) {
        flush(i - 1);
        first = i;
        miss_sum = ra_sum = instr_sum = cycle_sum = 0;
      }
    }
    miss_sum += pts[i].miss_rate;
    ra_sum += pts[i].replication_ability;
    instr_sum += pts[i].d_instructions;
    cycle_sum += pts[i].d_cycles;
  }
  flush(pts.size() - 1);
  return phases;
}

}  // namespace icr::obs
