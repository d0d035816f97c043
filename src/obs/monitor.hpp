#pragma once
// Online health monitor over the simulated-clock telemetry streams.
//
// The paper's runs live in a regime (1000 Summit nodes, 6000 GPUs) where
// rank failures and stragglers are routine, so an operator needs the layer
// that *watches*: something that turns the raw telemetry the Recorder
// collects into detections — "rank 3 went silent at t=212 ms", "rank 7 is a
// 2.5x straggler in iteration 4" — while the run is in flight. This header
// is that layer for the simulator. It replays a run's trace in simulated-
// time order (the simulation is serial, so "online" means: every decision
// at sample boundary t uses only observations with timestamp <= t) and
// records what fired as `health.incidents` counters (record_health).
//
// Two parts:
//   1. a sampler that snapshots every counter track in the trace
//      (heartbeats, GPU occupancy / DRAM throughput, retransmit counts) at a
//      configurable simulated-time cadence, keeping an exact ring-buffered
//      window per (series, lane) — values are copied, never re-derived, so
//      there is no float drift across runs;
//   2. built-in detectors keyed to the paper's failure modes, evaluated at
//      every sample boundary and emitting Incident records with fire/clear
//      timestamps on the simulated clock, the offending lane, the observed
//      value, and the enclosing span: dead-rank via heartbeat loss within
//      the SimComm detection window, straggler via per-iteration
//      lane-duration deviation across ranks (baselined per lane so a
//      deliberately imbalanced equi-distance schedule does not false-fire),
//      message-drop via retransmit-rate bursts, comm-overhead-fraction
//      breach (Fig. 8), and GPU DRAM-throughput collapse from the
//      per-rank counter tracks. Their thresholds are the k* constants below.
//
// Detection must come from telemetry alone: trace events in the "fault"
// category (the injector's ground-truth instants) are invisible to the
// monitor. The same instants are the ground truth (truth_from_trace), scored
// against the incidents with score_incidents — per-class recall, false
// positives, and detection latency — which is what makes detector quality
// a testable property rather than a vibe.
//
// Serve-lane detectors watch the job service's scheduler-lane telemetry
// (src/serve/service.cpp): queue_saturation (serve.queue_depth at/above the
// declared serve.queue_capacity), tenant_starvation (a tenant's
// admitted-but-not-scheduled age vs the other tenants' mean — the
// fleet-relative baseline, so a global backlog is overload, not
// starvation), cache_thrash (invalidation-driven dataset rebuilds within a
// trailing window), and — when MonitorOptions::slo carries budget
// objectives — slo_fast_burn / slo_slow_burn (windowed bad-request
// fraction over budget, the SRE multi-window burn alert). Their incidents
// land on the scheduler lane with the tenant label filled in. The burn
// windows must fit inside the sampler's retained history (window_samples *
// sample_every); serve traces are monitored at coarse cadences (~0.5-1 s),
// not the default 5 ms.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace multihit::obs {

/// Raised on invalid monitor options and malformed fault instants.
class MonitorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- detector thresholds ---------------------------------------------------

/// dead_rank: heartbeat silence beyond this vs the fleet's newest
/// heartbeat. Matches CommCostModel::detection_window.
inline constexpr double kHeartbeatTimeout = 0.05;
/// straggler: a lane fires when its per-iteration compute duration,
/// normalized by the other lanes' mean, exceeds this multiple of its own
/// cross-iteration baseline ratio.
inline constexpr double kStragglerRatio = 1.6;
/// gpu_collapse: a computing lane fires while its DRAM throughput sits
/// below this fraction of the fleet median.
inline constexpr double kCollapseFraction = 0.5;
/// comm_overhead: fires while cumulative comm seconds across rank lanes
/// exceed this fraction of cumulative busy seconds (a Fig. 8 breach —
/// communication dominating instead of hiding under compute). The value
/// sits well above the functional-scale runs' natural ~20% fraction;
/// paper-scale traces, where Fig. 8 reports single-digit percentages,
/// would want 0.1-0.15.
inline constexpr double kCommOverheadThreshold = 0.5;
/// message_drop: fires while the retransmit count grew within this
/// trailing window (seconds). A window narrower than the cadence degrades
/// gracefully: the rate check spans one full sampling interval.
inline constexpr double kDropWindow = 0.05;
/// queue_saturation: fires while serve.queue_depth sits at or above this
/// fraction of the declared serve.queue_capacity.
inline constexpr double kQueueSaturationFraction = 1.0;
/// tenant_starvation: a tenant's oldest admitted-but-not-scheduled age
/// fires when it exceeds this multiple of the other tenants' mean wait
/// age AND the absolute floor below (so a brief fair backlog is silent).
inline constexpr double kStarvationRatio = 4.0;
inline constexpr double kStarvationMinAge = 30.0;
/// cache_thrash: fires while at least kThrashRebuilds invalidation-driven
/// dataset rebuilds landed within the trailing kThrashWindow seconds. A
/// window wider than the retained history degrades gracefully (value_at
/// clamps to the oldest snapshot).
inline constexpr double kThrashWindow = 60.0;
inline constexpr std::uint32_t kThrashRebuilds = 3;
/// slo_fast_burn / slo_slow_burn: windowed bad fraction over budget
/// (burn rate) at or above these multiples fires; windows come from the
/// budget objectives in MonitorOptions::slo. These are the SRE fast/slow
/// page thresholds. A window needs at least kBurnMinEvents resolved
/// requests before it can fire (one stray rejection is not a burn).
inline constexpr double kFastBurnThreshold = 14.4;
inline constexpr double kSlowBurnThreshold = 6.0;
inline constexpr std::uint32_t kBurnMinEvents = 4;

struct MonitorOptions {
  /// Sample-boundary cadence in simulated seconds.
  double sample_every = 0.005;
  /// Ring-buffer depth per (series, lane): boundaries of history retained.
  std::uint32_t window_samples = 16;
  /// SLO objectives (parse_slo). Budget objectives arm the burn detectors;
  /// their windows must fit the retained history (window_samples *
  /// sample_every), validated up front.
  std::vector<SloObjective> slo;
};

/// One fired alert. `cleared` is the boundary the condition stopped holding
/// (== the final boundary, with `open` set, when it never stopped).
struct Incident {
  std::string rule;  ///< detector name ("dead_rank", ...)
  std::uint32_t lane = 0;
  std::string tenant;  ///< tenant label on serve-lane incidents ("" none)
  double fired = 0.0;
  double cleared = 0.0;
  bool open = false;
  double value = 0.0;        ///< observed value at fire time
  std::string span;          ///< innermost enclosing span at fire ("" none)
  std::int64_t iteration = -1;  ///< greedy iteration context (-1 none)
};

struct HealthReport {
  MonitorOptions options;  ///< echo of the evaluated configuration
  double makespan = 0.0;
  std::uint64_t boundaries = 0;
  std::uint32_t rank_lanes = 0;  ///< rank lanes seen carrying telemetry
  std::vector<Incident> incidents;  ///< in fire order (boundary, detector, lane)
};

/// Replays `trace` through the sampler and detectors. Pure and
/// deterministic: same trace + options => identical report, and running it
/// never touches the trace (bit-identical-off falls out for free). Throws
/// MonitorError naming the event when a greedy_iteration or compute span's
/// `iteration` arg is present but not a u32.
HealthReport monitor_trace(const Tracer& trace, const MonitorOptions& options = {});

/// Adds the report's incidents to `metrics` as counters: `health.incidents`
/// (unlabeled, the total; registered even when it is 0) and one
/// `health.incidents{lane=L, rule=R[, tenant=T]}` per group. Counters add,
/// so record one report per registry.
void record_health(const HealthReport& report, MetricsRegistry& metrics);

/// Human-readable rendering; `summary_only` stops after the per-rule counts.
std::string health_text(const HealthReport& report, bool summary_only = false);

/// Consistency of the incidents against a --metrics-out snapshot: lanes with
/// dead_rank incidents must match cluster.ranks_lost, message_drop incidents
/// must appear iff comm.retransmits counted any, and when the snapshot holds
/// `health.incidents` series they must equal what record_health writes for
/// `report`. Returns human-readable mismatches (empty = consistent).
std::vector<std::string> health_crosscheck(const HealthReport& report,
                                           const JsonValue& metrics);

/// Adds one "health.<rule>" instant per incident onto the offending lane at
/// its fire time (category "health"), so incidents line up under the spans
/// in the Chrome/Perfetto viewer. Intended for a copy of the trace about to
/// be written out — primary artifacts stay byte-identical without it.
void annotate_trace(Tracer& trace, const HealthReport& report);

// ---------------------------------------------------------------------------
// Ground truth: the fault injector's "fault.<kind>" instants (src/fault),
// read back from the trace.

/// One injected fault, as the scorer sees it. `kind` uses the fault layer's
/// names: "crash", "straggler", "drop", "abort".
struct TruthEvent {
  std::string kind;
  std::uint32_t rank = 0;
  std::uint32_t iteration = 0;
  double sim_time = 0.0;  ///< injection time on the simulated clock
};

/// One TruthEvent per "fault"-category instant of `trace`, in stable
/// (time, lane) order: kind = the name after "fault.", rank = the lane (0 on
/// kEngineLane), iteration = arg "iteration", sim_time = the instant's time.
/// Throws MonitorError naming the event on a missing or non-u32 iteration or
/// a kind score_incidents does not know.
std::vector<TruthEvent> truth_from_trace(const Tracer& trace);

struct ClassScore {
  std::uint32_t injected = 0;
  std::uint32_t detected = 0;
  double latency_mean = 0.0;  ///< mean fire delay after injection (s)
  double latency_max = 0.0;
};

struct HealthScore {
  /// Keyed by truth kind ("crash", "straggler", "drop", "abort").
  std::map<std::string, ClassScore> by_class;
  /// Incidents no truth event accounts for.
  std::uint32_t false_positives = 0;
  std::vector<std::string> misses;    ///< truth events never detected
  std::vector<std::string> spurious;  ///< the false-positive incidents
  bool perfect() const noexcept;      ///< full recall and no false positives
};

/// Scores incidents against the injected ground truth. A truth event counts
/// as detected when an incident of its primary detector class (crash ->
/// dead_rank, straggler -> straggler, drop -> message_drop, abort ->
/// job_abort) on the matching lane overlaps [sim_time, sim_time +
/// detection_window]; corroborating classes (gpu_collapse for stragglers,
/// comm_overhead for drops) absorb matching incidents without counting as
/// detections. Unmatched incidents are false positives.
HealthScore score_incidents(const HealthReport& report,
                            const std::vector<TruthEvent>& truth,
                            double detection_window);

std::string score_text(const HealthScore& score);

}  // namespace multihit::obs
