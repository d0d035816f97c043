#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <stdexcept>

namespace multihit::obs {

namespace {

constexpr double kMicros = 1e6;  // simulated seconds -> trace microseconds

JsonValue args_json(const SpanArgs& args) {
  JsonValue::Object object;
  for (const auto& [k, v] : args) object.emplace_back(k, JsonValue(v));
  return JsonValue(std::move(object));
}

}  // namespace

const std::string* find_arg(const TraceEvent& ev, std::string_view key) {
  for (const auto& [k, v] : ev.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::uint32_t> parse_u32(std::string_view text) {
  std::uint32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::string event_label(const TraceEvent& ev) {
  return std::string(ev.instant ? "instant '" : "span '") + ev.name + "' on lane " +
         std::to_string(ev.lane) + " at t=" + json_number(ev.begin) + " s";
}

void Tracer::complete(std::uint32_t lane, std::string_view name, std::string_view category,
                      double begin, double end, SpanArgs args) {
  if (!(end >= begin) || !std::isfinite(begin) || !std::isfinite(end)) {
    throw std::invalid_argument("Tracer::complete: span must satisfy begin <= end (finite)");
  }
  events_.push_back(TraceEvent{std::string(name), std::string(category), lane, begin, end,
                               /*instant=*/false, std::move(args)});
}

void Tracer::instant(std::uint32_t lane, std::string_view name, std::string_view category,
                     double at, SpanArgs args) {
  if (!std::isfinite(at)) {
    throw std::invalid_argument("Tracer::instant: timestamp must be finite");
  }
  events_.push_back(TraceEvent{std::string(name), std::string(category), lane, at, at,
                               /*instant=*/true, std::move(args)});
}

void Tracer::flow(std::uint32_t from_lane, double from_time, std::uint32_t to_lane,
                  double to_time, std::string_view name, std::string_view category,
                  bool binding, SpanArgs args) {
  if (!(to_time >= from_time) || !std::isfinite(from_time) || !std::isfinite(to_time)) {
    throw std::invalid_argument(
        "Tracer::flow: edge must satisfy from_time <= to_time (finite)");
  }
  flows_.push_back(FlowEdge{std::string(name), std::string(category), from_lane, to_lane,
                            from_time, to_time, binding, std::move(args)});
}

void Tracer::counter(std::uint32_t lane, std::string_view name, double at, double value) {
  if (!std::isfinite(at) || !std::isfinite(value)) {
    throw std::invalid_argument("Tracer::counter: timestamp and value must be finite");
  }
  counters_.push_back(CounterSample{std::string(name), lane, at, value});
}

void Tracer::set_lane_name(std::uint32_t lane, std::string_view name) {
  for (auto& [l, n] : lane_names_) {
    if (l == lane) {
      n = std::string(name);
      return;
    }
  }
  lane_names_.emplace_back(lane, std::string(name));
}

bool Tracer::per_lane_monotone() const {
  std::map<std::uint32_t, double> last_begin;
  for (const TraceEvent& event : events_) {
    auto [it, inserted] = last_begin.try_emplace(event.lane, event.begin);
    if (!inserted) {
      if (event.begin < it->second) return false;
      it->second = event.begin;
    }
  }
  return true;
}

JsonValue Tracer::chrome_trace() const {
  JsonValue::Array trace_events;

  // Metadata first: process name plus any named lanes.
  {
    JsonValue process;
    process.set("ph", JsonValue("M"));
    process.set("name", JsonValue("process_name"));
    process.set("pid", JsonValue(0));
    process.set("tid", JsonValue(0));
    JsonValue args;
    args.set("name", JsonValue("multihit-sim"));
    process.set("args", std::move(args));
    trace_events.push_back(std::move(process));
  }
  std::vector<std::pair<std::uint32_t, std::string>> lanes = lane_names_;
  std::sort(lanes.begin(), lanes.end());
  for (const auto& [lane, name] : lanes) {
    JsonValue thread;
    thread.set("ph", JsonValue("M"));
    thread.set("name", JsonValue("thread_name"));
    thread.set("pid", JsonValue(0));
    thread.set("tid", JsonValue(static_cast<double>(lane)));
    JsonValue args;
    args.set("name", JsonValue(name));
    thread.set("args", std::move(args));
    trace_events.push_back(std::move(thread));
  }

  // Span/instant events sorted so viewers nest contained spans correctly:
  // by lane, then start time, then longest-first among equal starts.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const TraceEvent& event : events_) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->lane != b->lane) return a->lane < b->lane;
                     if (a->begin != b->begin) return a->begin < b->begin;
                     return a->duration() > b->duration();
                   });
  for (const TraceEvent* event : ordered) {
    JsonValue entry;
    entry.set("name", JsonValue(event->name));
    entry.set("cat", JsonValue(event->category));
    entry.set("ph", JsonValue(event->instant ? "i" : "X"));
    entry.set("pid", JsonValue(0));
    entry.set("tid", JsonValue(static_cast<double>(event->lane)));
    entry.set("ts", JsonValue(event->begin * kMicros));
    if (event->instant) {
      entry.set("s", JsonValue("t"));  // instant scope: thread
    } else {
      entry.set("dur", JsonValue(event->duration() * kMicros));
    }
    if (!event->args.empty()) entry.set("args", args_json(event->args));
    trace_events.push_back(std::move(entry));
  }

  // Counter-track samples after the spans, in insertion order. Chrome "C"
  // events carry the sampled value as a *number* in args (unlike span args,
  // which this exporter keeps as strings).
  for (const CounterSample& sample : counters_) {
    JsonValue entry;
    entry.set("name", JsonValue(sample.name));
    entry.set("cat", JsonValue("counter"));
    entry.set("ph", JsonValue("C"));
    entry.set("pid", JsonValue(0));
    entry.set("tid", JsonValue(static_cast<double>(sample.lane)));
    entry.set("ts", JsonValue(sample.at * kMicros));
    JsonValue args;
    args.set("value", JsonValue(sample.value));
    entry.set("args", std::move(args));
    trace_events.push_back(std::move(entry));
  }

  // Flow edges last, in insertion order (deterministic); each edge is an
  // "s"/"f" pair sharing its index as the flow id. "bp":"e" binds the finish
  // to the enclosing slice, which is how Perfetto draws the arrowhead.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowEdge& edge = flows_[i];
    JsonValue start;
    start.set("name", JsonValue(edge.name));
    start.set("cat", JsonValue(edge.category));
    start.set("ph", JsonValue("s"));
    start.set("id", JsonValue(static_cast<double>(i)));
    start.set("pid", JsonValue(0));
    start.set("tid", JsonValue(static_cast<double>(edge.from_lane)));
    start.set("ts", JsonValue(edge.from_time * kMicros));
    {
      SpanArgs args = edge.args;
      args.emplace_back("binding", edge.binding ? "true" : "false");
      start.set("args", args_json(args));
    }
    trace_events.push_back(std::move(start));

    JsonValue finish;
    finish.set("name", JsonValue(edge.name));
    finish.set("cat", JsonValue(edge.category));
    finish.set("ph", JsonValue("f"));
    finish.set("bp", JsonValue("e"));
    finish.set("id", JsonValue(static_cast<double>(i)));
    finish.set("pid", JsonValue(0));
    finish.set("tid", JsonValue(static_cast<double>(edge.to_lane)));
    finish.set("ts", JsonValue(edge.to_time * kMicros));
    trace_events.push_back(std::move(finish));
  }

  JsonValue doc;
  doc.set("displayTimeUnit", JsonValue("ms"));
  doc.set("traceEvents", JsonValue(std::move(trace_events)));
  return doc;
}

std::string Tracer::to_chrome_json() const { return chrome_trace().dump(); }

}  // namespace multihit::obs
