// Rendering for the trace analysis: its analysis.* metrics series and the
// human-readable summary `multihit-obstool analyze` prints. Both are pure
// functions of TraceAnalysis, so byte-identical analyses render
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

void record_analysis(const TraceAnalysis& analysis, MetricsRegistry& metrics) {
  metrics.gauge("analysis.makespan_seconds").set(analysis.makespan);
  metrics.gauge("analysis.rank_lanes").set(analysis.rank_lanes);
  for (const PhaseStat& stat : analysis.phases) {
    const Labels labels = {{"category", stat.category}, {"phase", stat.phase}};
    metrics.gauge("analysis.phase.total_seconds", labels).set(stat.total_seconds);
    metrics.gauge("analysis.phase.mean_seconds", labels).set(stat.mean_seconds);
    metrics.gauge("analysis.phase.max_seconds", labels).set(stat.max_seconds);
    metrics.gauge("analysis.phase.stddev_seconds", labels).set(stat.stddev_seconds);
    metrics.gauge("analysis.phase.max_over_mean", labels).set(stat.max_over_mean);
    metrics.gauge("analysis.phase.lanes", labels).set(stat.lanes);
    metrics.gauge("analysis.phase.straggler_lane", labels).set(stat.straggler_lane);
  }
  metrics.gauge("analysis.comm_seconds").set(analysis.comm_seconds);
  metrics.gauge("analysis.busy_seconds").set(analysis.busy_seconds);
  metrics.gauge("analysis.comm_fraction").set(analysis.comm_fraction);
  for (const IterationWindow& window : analysis.iterations) {
    const Labels labels = {{"iteration", std::to_string(window.index)}};
    metrics.gauge("analysis.iteration.begin_seconds", labels).set(window.begin);
    metrics.gauge("analysis.iteration.end_seconds", labels).set(window.end);
  }
  // One cell per (phase, lane), its segments summed in path order: the
  // diff's makespan attribution reads these values as they stand.
  std::map<std::pair<std::string, std::uint32_t>, double> cells;
  for (const CriticalSegment& seg : analysis.critical_path) {
    cells[{seg.phase, seg.lane}] += seg.end - seg.begin;
  }
  for (const auto& [cell, seconds] : cells) {
    metrics.gauge("analysis.critical_seconds",
                  {{"lane", std::to_string(cell.second)}, {"phase", cell.first}})
        .set(seconds);
  }
}

std::string analysis_text(const TraceAnalysis& analysis) {
  std::string out = "multihit trace analysis\n";
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
