#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace multihit::obs {

namespace {

constexpr double kMicros = 1e6;

/// One span with its nesting depth on its lane (0 = top-level).
struct DepthSpan {
  const TraceEvent* event;
  std::size_t index;  ///< insertion index in Tracer::events()
  std::uint32_t depth = 0;
  std::uint32_t parent = 0;  ///< position in the lane vector; self when root
};

/// Non-instant spans of one lane, chronological, with containment depths.
/// Ordering is (begin asc, duration desc, insertion index desc): the
/// clock-delta instrumentation pattern appends children during a phase and
/// the parent afterwards, so for fully tied spans (a GPU kernel exactly as
/// long as its compute phase) the later-appended span is the outer one.
using LaneSpans = std::map<std::uint32_t, std::vector<DepthSpan>>;

LaneSpans build_lane_spans(const Tracer& tracer) {
  LaneSpans lanes;
  const std::vector<TraceEvent>& events = tracer.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].instant) continue;
    lanes[events[i].lane].push_back(DepthSpan{&events[i], i});
  }
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const DepthSpan& a, const DepthSpan& b) {
      if (a.event->begin != b.event->begin) return a.event->begin < b.event->begin;
      if (a.event->duration() != b.event->duration())
        return a.event->duration() > b.event->duration();
      return a.index > b.index;
    });
    // Stack sweep: begin-sorted, so a span nests iff it ends within the top
    // of the open-span stack. A span whose would-be parent shares its name
    // is a concurrent sibling, not a child — a node's six GPU kernels all
    // start at the rank clock, and interval containment alone would chain
    // them into a bogus six-deep stack.
    std::vector<std::uint32_t> stack;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      while (!stack.empty() && spans[stack.back()].event->end < spans[i].event->end) {
        stack.pop_back();
      }
      if (!stack.empty() && spans[stack.back()].event->name == spans[i].event->name) {
        spans[i].depth = spans[stack.back()].depth;
        spans[i].parent = spans[stack.back()].parent;
        continue;  // sibling leaf: later spans nest into the first sibling
      }
      spans[i].depth = static_cast<std::uint32_t>(stack.size());
      spans[i].parent = stack.empty() ? i : stack.back();
      stack.push_back(i);
    }
  }
  return lanes;
}

bool is_rank_lane(std::uint32_t lane) { return lane < kEngineLane; }

/// True when the gap [lo, hi] is rounding, not a wait: a few ULPs wide, as
/// when one instant reaches two spans through different arithmetic (the
/// Chrome export's microseconds).
bool is_rounding_gap(double lo, double hi) {
  return hi - lo <= 4.0 * std::numeric_limits<double>::epsilon() * std::abs(hi);
}

/// Appends the [a, b] slice of `lane`'s timeline to `out` in reverse
/// chronological order: pieces covered by top-level spans get the span's
/// name, gaps get "wait". A rounding gap joins the span beside it instead,
/// so the pieces still tile [a, b].
void attribute_backward(const std::vector<DepthSpan>& spans, std::uint32_t lane, double a,
                        double b, std::vector<CriticalSegment>& out) {
  if (!(b > a)) return;
  std::vector<CriticalSegment> forward;
  double cursor = a;
  for (const DepthSpan& ds : spans) {
    if (ds.depth != 0) continue;
    const TraceEvent& s = *ds.event;
    if (s.end <= cursor) continue;
    if (s.begin >= b) break;
    double lo = std::max(cursor, s.begin);
    const double hi = std::min(b, s.end);
    if (lo > cursor) {
      if (is_rounding_gap(cursor, lo)) {
        lo = cursor;
      } else {
        forward.push_back({lane, cursor, lo, "wait"});
      }
    }
    if (hi > lo) forward.push_back({lane, lo, hi, s.name});
    cursor = std::max(cursor, hi);
    if (cursor >= b) break;
  }
  if (cursor < b) {
    // Every piece so far ends at `cursor`, so the last one can absorb it.
    if (!forward.empty() && is_rounding_gap(cursor, b)) {
      forward.back().end = b;
    } else {
      forward.push_back({lane, cursor, b, "wait"});
    }
  }
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) out.push_back(*it);
}

}  // namespace

TraceAnalysis analyze_trace(const Tracer& tracer) {
  TraceAnalysis analysis;
  const LaneSpans lanes = build_lane_spans(tracer);

  // ---- makespan and the per-phase / per-rank breakdown.
  std::vector<std::uint32_t> rank_lanes;
  for (const auto& [lane, spans] : lanes) {
    if (is_rank_lane(lane) && !spans.empty()) rank_lanes.push_back(lane);
  }
  analysis.rank_lanes = static_cast<std::uint32_t>(rank_lanes.size());

  std::uint32_t makespan_lane = 0;
  for (const std::uint32_t lane : rank_lanes) {
    for (const DepthSpan& ds : lanes.at(lane)) {
      if (ds.event->end > analysis.makespan) {
        analysis.makespan = ds.event->end;
        makespan_lane = lane;
      }
    }
  }

  // phase -> (category, per-lane seconds keyed by rank lane).
  std::map<std::string, std::pair<std::string, std::map<std::uint32_t, double>>> by_phase;
  for (const std::uint32_t lane : rank_lanes) {
    for (const DepthSpan& ds : lanes.at(lane)) {
      if (ds.depth != 0) continue;
      auto& entry = by_phase[ds.event->name];
      if (entry.first.empty()) entry.first = ds.event->category;
      entry.second[lane] += ds.event->duration();
    }
  }
  for (const auto& [phase, entry] : by_phase) {
    const auto& [category, per_lane] = entry;
    PhaseStat stat;
    stat.phase = phase;
    stat.category = category;
    stat.lanes = static_cast<std::uint32_t>(per_lane.size());
    // Mean and stddev are over *all* rank lanes in the trace: a lane that
    // never entered the phase contributes zero — that absence is imbalance.
    for (const auto& [lane, seconds] : per_lane) {
      stat.total_seconds += seconds;
      if (seconds > stat.max_seconds) {
        stat.max_seconds = seconds;
        stat.straggler_lane = lane;
      }
    }
    const double n = static_cast<double>(rank_lanes.size());
    stat.mean_seconds = n > 0 ? stat.total_seconds / n : 0.0;
    if (n > 1) {
      double ss = 0.0;
      for (const std::uint32_t lane : rank_lanes) {
        const auto it = per_lane.find(lane);
        const double v = it == per_lane.end() ? 0.0 : it->second;
        ss += (v - stat.mean_seconds) * (v - stat.mean_seconds);
      }
      stat.stddev_seconds = std::sqrt(ss / (n - 1.0));
    }
    stat.max_over_mean = stat.mean_seconds > 0.0 ? stat.max_seconds / stat.mean_seconds : 0.0;
    analysis.busy_seconds += stat.total_seconds;
    if (stat.category == "comm") analysis.comm_seconds += stat.total_seconds;
    analysis.phases.push_back(std::move(stat));
  }
  analysis.comm_fraction =
      analysis.busy_seconds > 0.0 ? analysis.comm_seconds / analysis.busy_seconds : 0.0;

  // ---- critical path: backward walk over binding flow edges.
  // Per destination lane, binding edges sorted by arrival time.
  std::map<std::uint32_t, std::vector<const FlowEdge*>> incoming;
  for (const FlowEdge& edge : tracer.flows()) {
    if (edge.binding) incoming[edge.to_lane].push_back(&edge);
  }
  for (auto& [lane, edges] : incoming) {
    std::stable_sort(edges.begin(), edges.end(), [](const FlowEdge* a, const FlowEdge* b) {
      return a->to_time < b->to_time;
    });
  }

  if (analysis.makespan > 0.0) {
    std::uint32_t cur_lane = makespan_lane;
    double cur_time = analysis.makespan;
    std::vector<CriticalSegment> backward;
    while (cur_time > 0.0) {
      const FlowEdge* next = nullptr;
      const auto it = incoming.find(cur_lane);
      if (it != incoming.end()) {
        // Latest binding arrival at or before cur_time whose departure is
        // strictly earlier — strict progress guarantees termination.
        const auto& edges = it->second;
        auto upper = std::upper_bound(edges.begin(), edges.end(), cur_time,
                                      [](double t, const FlowEdge* e) { return t < e->to_time; });
        while (upper != edges.begin()) {
          --upper;
          if ((*upper)->from_time < cur_time) {
            next = *upper;
            break;
          }
        }
      }
      const double seg_begin = next ? next->to_time : 0.0;
      const auto lane_it = lanes.find(cur_lane);
      static const std::vector<DepthSpan> kNoSpans;
      attribute_backward(lane_it == lanes.end() ? kNoSpans : lane_it->second, cur_lane,
                         seg_begin, cur_time, backward);
      if (!next) break;
      // The wire time of the jump edge [departure, arrival] is on the path
      // too — attributed as "transfer" so the tiles still cover [0, makespan]
      // and the comm wire share is visible in the breakdown.
      if (next->to_time > next->from_time) {
        backward.push_back({next->to_lane, next->from_time, next->to_time, "transfer"});
      }
      cur_lane = next->from_lane;
      cur_time = next->from_time;
    }
    std::reverse(backward.begin(), backward.end());
    // Merge adjacent pieces with the same lane and phase so reports stay
    // compact (a lane's consecutive spans of one phase collapse).
    for (CriticalSegment& seg : backward) {
      if (!analysis.critical_path.empty()) {
        CriticalSegment& last = analysis.critical_path.back();
        if (last.lane == seg.lane && last.phase == seg.phase && last.end == seg.begin) {
          last.end = seg.end;
          continue;
        }
      }
      analysis.critical_path.push_back(std::move(seg));
    }
  }
  std::map<std::string, double> critical_phase;
  for (const CriticalSegment& seg : analysis.critical_path) {
    analysis.critical_total += seg.end - seg.begin;
    critical_phase[seg.phase] += seg.end - seg.begin;
  }
  analysis.critical_by_phase.assign(critical_phase.begin(), critical_phase.end());

  // ---- greedy iteration windows from the engine lane.
  const auto engine_it = lanes.find(kEngineLane);
  if (engine_it != lanes.end()) {
    for (const DepthSpan& ds : engine_it->second) {
      if (ds.event->name != "greedy_iteration") continue;
      IterationWindow window;
      window.index = u32_arg<AnalysisError>(*ds.event, "iteration")
                         .value_or(static_cast<std::uint32_t>(analysis.iterations.size()));
      window.begin = ds.event->begin;
      window.end = ds.event->end;
      analysis.iterations.push_back(window);
    }
  }
  return analysis;
}

Tracer tracer_from_chrome(const JsonValue& doc) {
  const JsonFields events =
      JsonFields::root<AnalysisError>(doc, "trace document").array("traceEvents");

  Tracer tracer;
  struct FlowStart {
    std::string name, category;
    std::uint32_t lane;
    double time;
    bool binding;
    SpanArgs args;
  };
  std::map<std::uint64_t, FlowStart> pending;

  for (const JsonFields& event : events.objects()) {
    const std::string& ph = event.string("ph");
    if (ph == "M") {
      if (event.string("name") == "thread_name") {
        tracer.set_lane_name(event.u32("tid"), event.object("args").string("name"));
      }
      continue;
    }
    const std::uint32_t lane = event.u32("tid");
    const double ts = event.number("ts") / kMicros;
    const auto span_args = [&event] {
      return event.has("args") ? event.object("args").strings() : SpanArgs{};
    };
    if (ph == "X") {
      const double dur = event.number("dur") / kMicros;
      tracer.complete(lane, event.string("name"), event.string("cat"), ts, ts + dur,
                      span_args());
    } else if (ph == "i") {
      tracer.instant(lane, event.string("name"), event.string("cat"), ts, span_args());
    } else if (ph == "C") {
      tracer.counter(lane, event.string("name"), ts, event.object("args").number("value"));
    } else if (ph == "s") {
      const std::uint64_t id = event.u64("id");
      SpanArgs args = span_args();
      bool binding = false;
      for (auto it = args.begin(); it != args.end(); ++it) {
        if (it->first == "binding") {
          binding = it->second == "true";
          args.erase(it);
          break;
        }
      }
      if (!pending
               .emplace(id, FlowStart{event.string("name"), event.string("cat"), lane, ts,
                                      binding, std::move(args)})
               .second) {
        event.fail("repeats flow start id " + std::to_string(id));
      }
    } else if (ph == "f") {
      const std::uint64_t id = event.u64("id");
      const auto it = pending.find(id);
      if (it == pending.end()) {
        event.fail("finishes flow id " + std::to_string(id) + " without a start");
      }
      FlowStart start = std::move(it->second);
      pending.erase(it);
      tracer.flow(start.lane, start.time, lane, ts, start.name, start.category, start.binding,
                  std::move(start.args));
    } else {
      event.fail("has unsupported phase '" + ph + "'");
    }
  }
  if (!pending.empty()) {
    events.fail("has " + std::to_string(pending.size()) + " flow start(s) without a finish");
  }
  return tracer;
}

std::string folded_stacks(const Tracer& tracer) {
  const LaneSpans lanes = build_lane_spans(tracer);
  std::map<std::uint32_t, std::string> names;
  for (const auto& [lane, name] : tracer.lane_names()) names[lane] = name;

  // Self time per distinct stack, summed before it is rounded to integer
  // microseconds for stable text: a host trace's claim spans last well under
  // a microsecond each, and rounding span by span would drop them all.
  std::map<std::string, double> folded;
  std::vector<std::string> stacks;  // reused per lane: stack string per span
  for (const auto& [lane, spans] : lanes) {
    const auto name_it = names.find(lane);
    const std::string lane_name =
        name_it != names.end() ? name_it->second : "lane " + std::to_string(lane);
    stacks.assign(spans.size(), {});
    std::vector<double> child_time(spans.size(), 0.0);
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      stacks[i] = spans[i].depth == 0 ? lane_name + ";" + spans[i].event->name
                                      : stacks[spans[i].parent] + ";" + spans[i].event->name;
      if (spans[i].depth > 0) child_time[spans[i].parent] += spans[i].event->duration();
    }
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      folded[stacks[i]] += std::max(spans[i].event->duration() - child_time[i], 0.0);
    }
  }

  std::string out;
  for (const auto& [stack, seconds] : folded) {
    const std::int64_t micros = std::llround(seconds * kMicros);
    if (micros <= 0) continue;
    out += stack;
    out += ' ';
    out += std::to_string(micros);
    out += '\n';
  }
  return out;
}

}  // namespace multihit::obs
