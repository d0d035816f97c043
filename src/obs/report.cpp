// Rendering for the trace analysis: the multihit.analysis.v1 JSON report
// and the human-readable summary `multihit-obstool analyze` prints. Both are
// pure functions of TraceAnalysis, so byte-identical analyses render
// byte-identical artifacts.

#include <algorithm>
#include <map>

#include "obs/analyze.hpp"
#include "obs/metrics.hpp"

namespace multihit::obs {

std::map<std::string, double> metrics_counter_totals(const JsonValue& metrics) {
  const JsonFields root =
      require_schema<AnalysisError>(metrics, kMetricsSchema, "metrics document");
  // A name's unlabeled series is its total (record_health writes one beside
  // its per-lane parts); its labeled parts are summed only when it has none.
  std::map<std::string, double> totals;
  std::map<std::string, double> unlabeled;
  for (const JsonFields& entry : root.array("counters").objects()) {
    const bool plain = !entry.has("labels") || entry.object("labels").size() == 0;
    (plain ? unlabeled : totals)[entry.string("name")] += entry.number("value");
  }
  for (const auto& [name, value] : unlabeled) totals[name] = value;
  return totals;
}

std::string metrics_family_mismatch(const JsonValue& metrics, const JsonValue& replay,
                                    std::string_view family) {
  const auto entries = [family](const JsonValue& doc) {
    const JsonFields root =
        require_schema<AnalysisError>(doc, kMetricsSchema, "metrics document");
    std::vector<const JsonValue*> out;
    for (const char* section : {"counters", "gauges", "histograms"}) {
      if (!root.has(section)) continue;
      const std::vector<JsonFields> typed = root.array(section).objects();
      for (std::size_t i = 0; i < typed.size(); ++i) {
        const std::string_view name = typed[i].string("name");
        if (name.substr(0, family.size()) == family &&
            (name.size() == family.size() || name[family.size()] == '.')) {
          out.push_back(&doc.find(section)->at(i));
        }
      }
    }
    return out;
  };
  const std::vector<const JsonValue*> recorded = entries(metrics);
  const std::vector<const JsonValue*> expected = entries(replay);
  for (std::size_t i = 0; i < std::max(recorded.size(), expected.size()); ++i) {
    const JsonValue* in_metrics = i < recorded.size() ? recorded[i] : nullptr;
    const JsonValue* in_replay = i < expected.size() ? expected[i] : nullptr;
    if (in_metrics && in_replay && in_metrics->dump() == in_replay->dump()) continue;
    return "metrics hold " + (in_metrics ? in_metrics->dump() : "nothing") +
           " where the replay records " + (in_replay ? in_replay->dump() : "nothing");
  }
  return {};
}

JsonValue analysis_report(const TraceAnalysis& analysis) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(kAnalysisSchema));
  doc.set("makespan_seconds", JsonValue(analysis.makespan));
  doc.set("rank_lanes", JsonValue(static_cast<double>(analysis.rank_lanes)));

  JsonValue phases = JsonValue::array();
  for (const PhaseStat& stat : analysis.phases) {
    JsonValue entry = JsonValue::object();
    entry.set("phase", JsonValue(stat.phase));
    entry.set("category", JsonValue(stat.category));
    entry.set("total_seconds", JsonValue(stat.total_seconds));
    entry.set("mean_seconds", JsonValue(stat.mean_seconds));
    entry.set("max_seconds", JsonValue(stat.max_seconds));
    entry.set("stddev_seconds", JsonValue(stat.stddev_seconds));
    entry.set("max_over_mean", JsonValue(stat.max_over_mean));
    entry.set("lanes", JsonValue(static_cast<double>(stat.lanes)));
    entry.set("straggler_lane", JsonValue(static_cast<double>(stat.straggler_lane)));
    phases.push_back(std::move(entry));
  }
  doc.set("phases", std::move(phases));

  JsonValue critical = JsonValue::object();
  critical.set("total_seconds", JsonValue(analysis.critical_total));
  JsonValue by_phase = JsonValue::array();
  for (const auto& [phase, seconds] : analysis.critical_by_phase) {
    JsonValue entry = JsonValue::object();
    entry.set("phase", JsonValue(phase));
    entry.set("seconds", JsonValue(seconds));
    entry.set("fraction", JsonValue(analysis.critical_total > 0.0
                                        ? seconds / analysis.critical_total
                                        : 0.0));
    by_phase.push_back(std::move(entry));
  }
  critical.set("by_phase", std::move(by_phase));
  JsonValue segments = JsonValue::array();
  for (const CriticalSegment& seg : analysis.critical_path) {
    JsonValue entry = JsonValue::object();
    entry.set("lane", JsonValue(static_cast<double>(seg.lane)));
    entry.set("phase", JsonValue(seg.phase));
    entry.set("begin_seconds", JsonValue(seg.begin));
    entry.set("end_seconds", JsonValue(seg.end));
    segments.push_back(std::move(entry));
  }
  critical.set("segments", std::move(segments));
  doc.set("critical_path", std::move(critical));

  JsonValue comm = JsonValue::object();
  comm.set("comm_seconds", JsonValue(analysis.comm_seconds));
  comm.set("busy_seconds", JsonValue(analysis.busy_seconds));
  comm.set("overhead_fraction", JsonValue(analysis.comm_fraction));
  doc.set("comm", std::move(comm));

  JsonValue iterations = JsonValue::array();
  for (const IterationWindow& window : analysis.iterations) {
    JsonValue entry = JsonValue::object();
    entry.set("index", JsonValue(static_cast<double>(window.index)));
    entry.set("begin_seconds", JsonValue(window.begin));
    entry.set("end_seconds", JsonValue(window.end));
    iterations.push_back(std::move(entry));
  }
  doc.set("iterations", std::move(iterations));

  return doc;
}

std::string analysis_text(const TraceAnalysis& analysis) {
  std::string out = "multihit trace analysis (" + std::string(kAnalysisSchema) + ")\n";
  out += "  makespan: " + fmt("%.6g", analysis.makespan) + " s across " +
         std::to_string(analysis.rank_lanes) + " rank lane(s), " +
         std::to_string(analysis.iterations.size()) + " greedy iteration(s)\n";

  out += "  critical path: " + fmt("%.6g", analysis.critical_total) + " s\n";
  for (const auto& [phase, seconds] : analysis.critical_by_phase) {
    const double frac =
        analysis.critical_total > 0.0 ? seconds / analysis.critical_total : 0.0;
    out += "    " + phase + ": " + fmt("%.6g", seconds) + " s (" +
           fmt("%.2f", frac * 100.0) + "%)\n";
  }

  out += "  phase breakdown across rank lanes (seconds):\n";
  for (const PhaseStat& stat : analysis.phases) {
    out += "    " + stat.phase + ": total " + fmt("%.6g", stat.total_seconds) + ", mean " +
           fmt("%.6g", stat.mean_seconds) + ", max " + fmt("%.6g", stat.max_seconds) +
           " (lane " + std::to_string(stat.straggler_lane) + "), stddev " +
           fmt("%.6g", stat.stddev_seconds) + ", max/mean " +
           fmt("%.3f", stat.max_over_mean) + "\n";
  }

  out += "  communication overhead: " + fmt("%.6g", analysis.comm_seconds) + " s of " +
         fmt("%.6g", analysis.busy_seconds) + " s busy (" +
         fmt("%.4f", analysis.comm_fraction * 100.0) + "%)\n";
  return out;
}

}  // namespace multihit::obs
