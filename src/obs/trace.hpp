#pragma once
// Span tracer over *simulated* clocks.
//
// Every timestamp fed to this tracer comes from the per-rank simulated
// clocks in SimComm / the cluster model, never from wall time, so traces
// are deterministic: two identical runs produce byte-identical trace files,
// and a diff between two trace files is a meaningful performance diff.
// The one exception is the host-sweep profiler's trace (obs/hostprof.hpp),
// in steady-clock seconds of a real run: a host trace is never
// byte-compared with another run's, only with its own re-export.
//
// Lanes: each trace event carries a lane id (`tid` in Chrome terms). MPI
// ranks trace on lane == rank; the greedy engine and driver-level phases
// (schedule build, recovery re-partition) trace on kEngineLane so they
// never collide with rank lanes. Spans on one lane must be appended in
// non-decreasing start-time order — per_lane_monotone() verifies it — with
// nesting expressed by containment (a GPU kernel span sits inside its
// rank's compute span), which is exactly how Chrome/Perfetto reconstruct
// the flame graph.
//
// Export: to_chrome_json() emits the Chrome trace-event format (the JSON
// array "traceEvents" flavor) with "X" complete events, "i" instants, and
// "M" thread-name metadata, timestamps in microseconds. Load it at
// chrome://tracing or https://ui.perfetto.dev.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace multihit::obs {

/// Lane for engine/driver-level spans, far above any plausible rank count.
inline constexpr std::uint32_t kEngineLane = 1u << 20;

/// Lane for schedule build/rebuild spans. Kept off the engine lane because a
/// mid-iteration rebuild begins after the iteration span that is appended
/// once the iteration commits — on one lane that would break the monotone
/// append order.
inline constexpr std::uint32_t kSchedulerLane = kEngineLane + 1;

/// String key/value annotations attached to a span ("args" in the viewer).
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

struct TraceEvent {
  std::string name;
  std::string category;
  std::uint32_t lane = 0;
  double begin = 0.0;  ///< simulated seconds
  double end = 0.0;    ///< == begin for instant events
  bool instant = false;
  SpanArgs args;

  double duration() const noexcept { return end - begin; }
};

/// The value of `ev`'s arg `key`, or nullptr when it has none.
const std::string* find_arg(const TraceEvent& ev, std::string_view key);

/// Strict decimal u32: the whole text must be digits whose value is below
/// 2^32 (no sign, no blanks); nullopt otherwise.
std::optional<std::uint32_t> parse_u32(std::string_view text);

/// "instant|span '<name>' on lane L at t=T s": how a trace reader's error
/// names the event it refuses.
std::string event_label(const TraceEvent& ev);

/// `ev`'s arg `key` through parse_u32; nullopt when the arg is absent. A
/// present but malformed value throws `Error` naming the event. Every trace
/// reader takes its integer args through this one function.
template <typename Error>
std::optional<std::uint32_t> u32_arg(const TraceEvent& ev, std::string_view key) {
  const std::string* text = find_arg(ev, key);
  if (!text) return std::nullopt;
  if (const std::optional<std::uint32_t> value = parse_u32(*text)) return value;
  throw Error(event_label(ev) + ": " + std::string(key) + " '" + *text +
              "' is not an integer in [0, 2^32)");
}

/// One sample of a numeric counter track (occupancy, DRAM throughput).
/// Exported as Chrome "C" events: Perfetto renders each (lane, name) pair as
/// a step-function strip under the lane's spans.
struct CounterSample {
  std::string name;
  std::uint32_t lane = 0;
  double at = 0.0;     ///< simulated seconds
  double value = 0.0;
};

/// One dependency edge between lanes: a message departing `from_lane` at
/// `from_time` and landing on `to_lane` at `to_time`. Exported as a Chrome
/// flow-event pair ("s"/"f" phases — Perfetto draws them as arrows) and
/// consumed by the trace analyzer as the cross-lane edges of the
/// happens-before graph. `binding` marks edges on which the receiver
/// actually waited (the sender's clock was ahead when the transfer started);
/// only binding edges can carry the critical path across lanes.
struct FlowEdge {
  std::string name;      ///< collective context: "reduce", "broadcast", "p2p"
  std::string category;
  std::uint32_t from_lane = 0;
  std::uint32_t to_lane = 0;
  double from_time = 0.0;  ///< simulated seconds at departure
  double to_time = 0.0;    ///< simulated seconds at arrival
  bool binding = false;
  SpanArgs args;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;

  /// Records a complete span [begin, end] on `lane`. Throws
  /// std::invalid_argument when end < begin (simulated clocks never run
  /// backwards; a violation is an instrumentation bug worth failing loudly).
  void complete(std::uint32_t lane, std::string_view name, std::string_view category,
                double begin, double end, SpanArgs args = {});

  /// Records an instant event (faults, checkpoints-taken marks).
  void instant(std::uint32_t lane, std::string_view name, std::string_view category,
               double at, SpanArgs args = {});

  /// Records a cross-lane dependency edge (one point-to-point message or
  /// collective hop). Kept separate from the span list — flows are emitted
  /// mid-collective, before the enclosing per-rank spans are appended, so
  /// folding them into the span stream would break the per-lane monotone
  /// append order. Throws std::invalid_argument on non-finite times or
  /// to_time < from_time (messages never arrive before they depart).
  void flow(std::uint32_t from_lane, double from_time, std::uint32_t to_lane, double to_time,
            std::string_view name, std::string_view category, bool binding,
            SpanArgs args = {});

  /// Records a counter-track sample: `name` on `lane` holds `value` from
  /// `at` until the next sample. Counters live outside the span stream (a
  /// sample between two spans does not break the per-lane monotone append
  /// invariant). Throws std::invalid_argument on non-finite inputs.
  void counter(std::uint32_t lane, std::string_view name, double at, double value);

  /// Human-readable lane name for the viewer ("rank 3", "engine").
  void set_lane_name(std::uint32_t lane, std::string_view name);

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<FlowEdge>& flows() const noexcept { return flows_; }
  const std::vector<CounterSample>& counters() const noexcept { return counters_; }
  const std::vector<std::pair<std::uint32_t, std::string>>& lane_names() const noexcept {
    return lane_names_;
  }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  /// True when, per lane, events were appended in non-decreasing start-time
  /// order — the invariant simulated clocks guarantee and trace viewers
  /// assume.
  bool per_lane_monotone() const;

  /// Chrome trace-event document:
  ///   {"displayTimeUnit": "ms", "traceEvents": [...]}.
  /// Span events are sorted by (lane, begin, -duration) so nested spans
  /// follow their parents; timestamps are microseconds of simulated time.
  /// Flow edges follow as "s"/"f" pairs sharing an "id" (their insertion
  /// index), with "binding" recorded in the start event's args so offline
  /// analysis can reconstruct the dependency graph.
  JsonValue chrome_trace() const;

  /// chrome_trace().dump() — the --trace-out file format.
  std::string to_chrome_json() const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<FlowEdge> flows_;
  std::vector<CounterSample> counters_;
  std::vector<std::pair<std::uint32_t, std::string>> lane_names_;
};

}  // namespace multihit::obs
