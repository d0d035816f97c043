#pragma once
// Trace analytics: from raw spans + flow edges to answers.
//
// PR 2's observability layer emits what happened; this engine answers the
// questions the paper's headline figures ask of that data:
//
//   * critical path — which chain of spans and message hops actually bounds
//     the simulated makespan (the strong-scaling denominator of Fig. 4);
//   * imbalance attribution — per-phase max/mean/stddev across rank lanes
//     and the straggler rank behind the max (the EA-vs-ED story of Fig. 3);
//   * communication overhead — the comm share of busy time per rank and
//     overall (the sub-0.23% claim of Fig. 8).
//
// The engine runs in-process on a live Tracer or offline on a saved
// --trace-out file (tracer_from_chrome reverses Tracer::chrome_trace). Its
// answers are metrics: record_analysis writes them as analysis.* gauges into
// a MetricsRegistry, so the analysis report is a multihit.metrics.v1
// snapshot like every other numeric artifact. Everything is deterministic:
// analysis of byte-identical traces produces byte-identical snapshots, which
// scripts/ci.sh enforces.
//
// Critical-path algorithm (backward walk over the happens-before graph):
// start at the rank lane whose last span ends latest (the makespan). At the
// current (lane, time), find the latest *binding* flow edge arriving on this
// lane at or before the current time — binding means the receiver actually
// waited on the sender (SimComm records this at send time). The interval
// between that arrival and the current time was spent on this lane
// (attributed to the covering top-level spans, gaps to "wait"); then the
// walk jumps to the edge's departure (from_lane, from_time) and repeats.
// With no binding edge left, the remaining [0, time] belongs to the current
// lane. Every jump strictly decreases the current time (transfers take > 0
// simulated seconds), so the walk terminates, and the attributed segments
// tile [0, makespan] exactly — the critical-path total always equals the
// makespan, and the *breakdown* is the insight.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/schema.hpp"
#include "obs/trace.hpp"

namespace multihit::obs {

class MetricsRegistry;

/// Raised on structurally invalid inputs: a --trace-out document that is not
/// a Chrome trace, an unpaired flow event, a metrics file with the wrong
/// schema. (Malformed JSON raises JsonParseError earlier.)
class AnalysisError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One phase (top-level span name on rank lanes, e.g. "compute",
/// "mpi_reduce") aggregated across rank lanes.
struct PhaseStat {
  std::string phase;
  std::string category;        ///< trace category ("compute", "comm", ...)
  double total_seconds = 0.0;  ///< summed over rank lanes
  double mean_seconds = 0.0;   ///< mean over rank lanes carrying any span
  double max_seconds = 0.0;
  double stddev_seconds = 0.0;
  double max_over_mean = 0.0;  ///< the Fig. 3 imbalance ratio (1.0 = perfect)
  std::uint32_t lanes = 0;     ///< rank lanes contributing
  std::uint32_t straggler_lane = 0;  ///< lane behind max_seconds
};

/// One chronological piece of the critical path.
struct CriticalSegment {
  std::uint32_t lane = 0;
  double begin = 0.0;
  double end = 0.0;
  std::string phase;  ///< covering top-level span name, or "wait" for gaps
};

/// One greedy iteration window (from the engine lane's greedy_iteration
/// spans).
struct IterationWindow {
  std::uint32_t index = 0;
  double begin = 0.0;
  double end = 0.0;
};

struct TraceAnalysis {
  double makespan = 0.0;        ///< latest span end across rank lanes
  std::uint32_t rank_lanes = 0; ///< rank lanes carrying at least one span
  std::vector<PhaseStat> phases;              ///< sorted by phase name
  std::vector<CriticalSegment> critical_path; ///< chronological, tiles [0, makespan]
  /// Critical-path seconds per phase (includes "wait"), sorted by phase name.
  std::vector<std::pair<std::string, double>> critical_by_phase;
  double critical_total = 0.0;  ///< == makespan by construction
  double busy_seconds = 0.0;    ///< top-level span time summed over rank lanes
  double comm_seconds = 0.0;    ///< category "comm" share of busy_seconds
  double comm_fraction = 0.0;   ///< comm_seconds / busy_seconds (Fig. 8)
  std::vector<IterationWindow> iterations;
};

/// Runs the analysis over a tracer's spans and flow edges. Lanes >=
/// kEngineLane are driver lanes: excluded from per-rank statistics, and the
/// engine lane's greedy_iteration spans become the iteration windows, indexed
/// by their `iteration` arg (positionally without one). A present `iteration`
/// that is not a u32 throws AnalysisError naming the span.
TraceAnalysis analyze_trace(const Tracer& tracer);

/// Reconstructs a Tracer from a Chrome trace-event document written by
/// Tracer::chrome_trace (the --trace-out format): "X" spans, "i" instants,
/// "M" lane names, "C" counter samples, and "s"/"f" flow pairs matched by
/// id. Throws AnalysisError on documents that do not have that shape.
Tracer tracer_from_chrome(const JsonValue& doc);

/// Counter totals from a parsed multihit.metrics.v1 snapshot, one per name:
/// the name's unlabeled series where it has one (that series is the total,
/// as health.incidents writes it beside its per-lane and per-rule parts),
/// otherwise the sum of its labeled series. Throws AnalysisError on
/// wrong-schema or ill-shaped documents. health_crosscheck reads it.
std::map<std::string, double> metrics_counter_totals(const JsonValue& metrics);

/// Compares one family of series — every counter, gauge and histogram named
/// `family` or `family.*` — of a parsed multihit.metrics.v1 snapshot against
/// a replay's snapshot, entry by entry in their (name, labels) order. Returns
/// "" when they are equal, else a sentence naming the first entry that
/// differs (an entry one side lacks reads "nothing"). Throws AnalysisError
/// on wrong-schema or ill-shaped documents. Shared by the health and SLO
/// crosschecks, which replay record_health / record_slo.
std::string metrics_family_mismatch(const JsonValue& metrics, const JsonValue& replay,
                                    std::string_view family);

// ------------------------------------------------------------------ reports
// (implemented in report.cpp)

/// Records the analysis as analysis.* gauges: makespan_seconds and
/// rank_lanes; phase.{total,mean,max,stddev}_seconds, phase.max_over_mean,
/// phase.lanes and phase.straggler_lane labelled {category, phase};
/// comm_seconds, busy_seconds and comm_fraction; iteration.begin_seconds and
/// iteration.end_seconds labelled {iteration}; and critical_seconds{lane,
/// phase}, each cell's critical-path segments summed in path order — the
/// cells the diff attributes a makespan delta to. `obstool analyze
/// --report-out` writes this snapshot; `obstool diff` records it from a
/// manifest's trace.
void record_analysis(const TraceAnalysis& analysis, MetricsRegistry& metrics);

/// Collapsed-stack ("folded") flamegraph lines over the span containment
/// tree: one "laneName;outer;inner <self-microseconds>" line per distinct
/// stack, sorted lexicographically. Feed to flamegraph.pl / speedscope.
std::string folded_stacks(const Tracer& tracer);

/// Human-readable run summary (phase table, critical-path breakdown, comm
/// overhead) — what `multihit-obstool analyze` prints.
std::string analysis_text(const TraceAnalysis& analysis);

}  // namespace multihit::obs
