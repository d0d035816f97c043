#include "obs/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <tuple>

#include "obs/analyze.hpp"

namespace multihit::obs {

namespace {

/// Runaway guard: a cadence far finer than the run is an options bug, not a
/// monitoring request.
constexpr std::uint64_t kMaxBoundaries = 4'000'000;

bool is_rank_lane(std::uint32_t lane) noexcept { return lane < kEngineLane; }

/// The detector whose incident detects an injected fault of `kind`
/// (nullptr for a kind the fault layer does not inject).
const char* primary_rule(std::string_view kind) {
  if (kind == "crash") return "dead_rank";
  if (kind == "straggler") return "straggler";
  if (kind == "drop") return "message_drop";
  if (kind == "abort") return "job_abort";
  return nullptr;
}

double median_of(std::vector<double> values) {
  const std::size_t n = values.size();
  const std::size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (n % 2 == 1) return values[mid];
  const double hi = values[mid];
  std::nth_element(values.begin(), values.begin() + mid - 1, values.begin() + mid);
  return (values[mid - 1] + hi) / 2.0;
}

void validate_options(const MonitorOptions& o) {
  const auto bad = [](const std::string& what) { throw MonitorError("monitor options: " + what); };
  if (!(o.sample_every > 0.0) || !std::isfinite(o.sample_every)) {
    bad("sample_every must be positive and finite");
  }
  if (o.window_samples < 2) bad("window_samples must be at least 2");
  // Burn windows must fit inside the retained ring, or a burn older than the
  // window would be silently under-counted instead of detected. (SLO specs
  // are opt-in, so serve-scale windows never constrain cluster monitoring.)
  const double retained = o.sample_every * static_cast<double>(o.window_samples - 1);
  for (const SloObjective& s : o.slo) {
    if (s.kind != SloKind::kBudget) continue;
    if (!(s.window > 0.0) || !(s.fast_window > 0.0) || s.fast_window >= s.window) {
      bad("slo budget for '" + s.tenant + "' needs 0 < fast window < window");
    }
    if (s.window > retained) {
      bad("slo budget window of " + json_number(s.window) +
          " s exceeds the retained history of " + json_number(retained) +
          " s (window_samples * sample_every); raise --window-samples");
    }
  }
}

/// Newest raw sample + ring window for one (series, lane).
struct SeriesState {
  double last_at = 0.0, last = 0.0;
  std::vector<std::pair<double, double>> ring;  ///< boundary snapshots, oldest first
  bool truncated = false;                       ///< ring has dropped old snapshots

  /// Value at the newest boundary <= cutoff. Before the series' first
  /// snapshot the value is 0 (counters count from zero); once the ring has
  /// truncated, requests older than it clamp to the oldest retained value.
  double value_at(double cutoff) const {
    for (auto it = ring.rbegin(); it != ring.rend(); ++it) {
      if (it->first <= cutoff) return it->second;
    }
    return truncated && !ring.empty() ? ring.front().second : 0.0;
  }
};

using SeriesKey = std::pair<std::string, std::uint32_t>;  // (name, lane)

/// Cumulative overlap of a span set with [0, t], advanced monotonically.
struct CumTimeline {
  std::vector<std::pair<double, double>> spans;  ///< sorted by begin
  std::size_t next = 0;
  std::vector<std::pair<double, double>> active;
  double done = 0.0;

  double at(double t) {
    while (next < spans.size() && spans[next].first <= t) active.push_back(spans[next++]);
    double sum = 0.0;
    std::size_t keep = 0;
    for (const auto& span : active) {
      if (span.second <= t) {
        done += span.second - span.first;
      } else {
        sum += t - span.first;
        active[keep++] = span;
      }
    }
    active.resize(keep);
    return done + sum;
  }
};

/// The "tenant" label value ("" when absent).
std::string tenant_label(const SeriesLabels& labels) {
  for (const auto& [k, v] : labels) {
    if (k == "tenant") return v;
  }
  return {};
}

}  // namespace

HealthReport monitor_trace(const Tracer& trace, const MonitorOptions& options) {
  validate_options(options);

  // --- gather the observation streams, in simulated-time order -------------
  struct CounterObs {
    double at;
    std::uint32_t lane;
    const std::string* name;
    double value;
  };
  std::vector<CounterObs> counter_obs;
  counter_obs.reserve(trace.counters().size());
  double makespan = 0.0;
  std::set<std::uint32_t> rank_lanes_seen;
  for (const CounterSample& c : trace.counters()) {
    counter_obs.push_back({c.at, c.lane, &c.name, c.value});
    makespan = std::max(makespan, c.at);
    if (is_rank_lane(c.lane)) rank_lanes_seen.insert(c.lane);
  }
  std::stable_sort(counter_obs.begin(), counter_obs.end(),
                   [](const CounterObs& a, const CounterObs& b) { return a.at < b.at; });

  struct IterWindow {
    std::int64_t index;
    double begin, end;
  };
  std::vector<IterWindow> windows;
  std::map<std::int64_t, std::map<std::uint32_t, double>> iter_compute;
  std::vector<double> restarts;
  CumTimeline comm_time, busy_time;
  std::map<std::uint32_t, std::vector<const TraceEvent*>> lane_spans;

  for (const TraceEvent& ev : trace.events()) {
    // The injector's instants are the labeled ground truth; detection works
    // from operational telemetry alone, so they are invisible here — they do
    // not even extend the monitored horizon.
    if (ev.category == "fault") continue;
    makespan = std::max(makespan, ev.end);
    if (!ev.instant) lane_spans[ev.lane].push_back(&ev);
    if (ev.lane == kEngineLane) {
      if (!ev.instant && ev.name == "greedy_iteration") {
        if (const auto iteration = u32_arg<MonitorError>(ev, "iteration")) {
          windows.push_back({*iteration, ev.begin, ev.end});
        }
      } else if (ev.instant && ev.name == "job_restart") {
        restarts.push_back(ev.begin);
      }
      continue;
    }
    if (!is_rank_lane(ev.lane)) continue;
    rank_lanes_seen.insert(ev.lane);
    if (ev.instant) continue;
    // Busy time counts top-level phase spans; "gpu" kernels nest inside
    // their compute span and would double-count.
    if (ev.category != "gpu") busy_time.spans.emplace_back(ev.begin, ev.end);
    if (ev.category == "comm") comm_time.spans.emplace_back(ev.begin, ev.end);
    if (ev.name == "compute" && ev.category == "compute") {
      if (const auto iteration = u32_arg<MonitorError>(ev, "iteration")) {
        iter_compute[*iteration][ev.lane] += ev.duration();
      }
    }
  }
  for (const FlowEdge& f : trace.flows()) makespan = std::max(makespan, f.to_time);
  const auto by_begin = [](const std::pair<double, double>& a,
                           const std::pair<double, double>& b) { return a.first < b.first; };
  std::stable_sort(comm_time.spans.begin(), comm_time.spans.end(), by_begin);
  std::stable_sort(busy_time.spans.begin(), busy_time.spans.end(), by_begin);
  std::stable_sort(windows.begin(), windows.end(),
                   [](const IterWindow& a, const IterWindow& b) { return a.end < b.end; });
  std::sort(restarts.begin(), restarts.end());

  const double dt = options.sample_every;
  std::uint64_t boundaries = 0;
  if (makespan > 0.0) {
    const double exact = makespan / dt;
    if (exact > static_cast<double>(kMaxBoundaries)) {
      throw MonitorError("sample_every of " + json_number(dt) + " s over a " +
                         json_number(makespan) + " s run exceeds " +
                         std::to_string(kMaxBoundaries) + " boundaries");
    }
    boundaries = static_cast<std::uint64_t>(std::ceil(exact));
    if (static_cast<double>(boundaries) * dt < makespan) ++boundaries;
  }

  HealthReport report;
  report.options = options;
  report.makespan = makespan;
  report.boundaries = boundaries;
  report.rank_lanes = static_cast<std::uint32_t>(rank_lanes_seen.size());

  // --- incident bookkeeping ------------------------------------------------
  const auto window_at = [&](double t) -> std::int64_t {
    for (const IterWindow& w : windows) {
      if (w.begin <= t && t <= w.end) return w.index;
    }
    return -1;
  };
  const auto enclosing_span = [&](std::uint32_t lane, double t) -> std::string {
    const auto it = lane_spans.find(lane);
    if (it == lane_spans.end()) return {};
    const TraceEvent* best = nullptr;
    for (const TraceEvent* ev : it->second) {
      if (ev->begin <= t && t <= ev->end) {
        if (!best || ev->begin > best->begin ||
            (ev->begin == best->begin && ev->end < best->end)) {
          best = ev;
        }
      }
    }
    return best ? best->name : std::string{};
  };

  // Incident identity is (rule, lane, tenant): per-tenant serve detectors
  // share the scheduler lane, so the tenant must discriminate or one tenant's
  // clear would close another tenant's incident.
  std::map<std::tuple<std::string, std::uint32_t, std::string>, std::size_t> open;
  const auto set_condition = [&](const std::string& rule, std::uint32_t lane,
                                 const std::string& tenant, bool breached, double value,
                                 double t, std::int64_t iter_hint) {
    const auto key = std::make_tuple(rule, lane, tenant);
    const auto it = open.find(key);
    if (breached && it == open.end()) {
      Incident inc;
      inc.rule = rule;
      inc.lane = lane;
      inc.tenant = tenant;
      inc.fired = t;
      inc.cleared = t;
      inc.open = true;
      inc.value = value;
      inc.span = enclosing_span(lane, t);
      inc.iteration = iter_hint >= 0 ? iter_hint : window_at(t);
      open.emplace(key, report.incidents.size());
      report.incidents.push_back(std::move(inc));
    } else if (!breached && it != open.end()) {
      report.incidents[it->second].cleared = t;
      report.incidents[it->second].open = false;
      open.erase(it);
    }
  };

  // --- sampler + detector state --------------------------------------------
  std::map<SeriesKey, SeriesState> series;
  std::size_t obs_ptr = 0;

  // Decompose label-suffixed series names once per distinct name. Serve
  // counters are well-formed by construction; any other name containing '{'
  // (a user counter, say) is lenient here — treated as an unlabeled base —
  // because telemetry that merely flows past the detectors is not an input
  // to reject.
  std::map<std::string, std::pair<std::string, SeriesLabels>> split_cache;
  const auto split_of =
      [&](const std::string& name) -> const std::pair<std::string, SeriesLabels>& {
    auto it = split_cache.find(name);
    if (it == split_cache.end()) {
      std::pair<std::string, SeriesLabels> parts{name, {}};
      try {
        parts = split_series_labels(name);
      } catch (const SloError&) {
      }
      it = split_cache.emplace(name, std::move(parts)).first;
    }
    return it->second;
  };

  // straggler: per-lane cross-iteration baseline of fleet-normalized compute
  // ratios. The baseline resets whenever the set of computing lanes changes
  // (a crash re-partition is a new schedule regime) and the first iteration
  // of each regime is warm-up, so persistent schedule imbalance (the
  // equi-distance case) never trips the detector — only a *change* does.
  std::map<std::uint32_t, std::vector<double>> straggler_baseline;
  std::set<std::uint32_t> straggler_active;
  struct LaneFlag {
    bool breached = false;  ///< verdict of the newest finalized iteration
    double value = 0.0;
    std::int64_t iteration = -1;
    /// Any breach among windows finalized since the last boundary. The
    /// cadence can be coarser than the iteration rate, so without the latch
    /// a straggle that starts and ends inside one sampling interval would
    /// never reach a boundary.
    bool latched = false;
    double latched_value = 0.0;
    std::int64_t latched_iteration = -1;
  };
  std::map<std::uint32_t, LaneFlag> straggler_state;
  std::size_t next_window = 0;
  std::size_t next_restart = 0;

  double t = 0.0;
  for (std::uint64_t k = 1; k <= boundaries; ++k) {
    t = static_cast<double>(k) * dt;

    // Ingest raw counter samples up to this boundary.
    while (obs_ptr < counter_obs.size() && counter_obs[obs_ptr].at <= t) {
      const CounterObs& ob = counter_obs[obs_ptr++];
      SeriesState& st = series[{*ob.name, ob.lane}];
      st.last = ob.value;
      st.last_at = ob.at;
    }
    // Boundary snapshot into each ring.
    for (auto& [key, st] : series) {
      if (st.ring.size() == options.window_samples) {
        st.ring.erase(st.ring.begin());
        st.truncated = true;
      }
      st.ring.emplace_back(t, st.last);
    }

    // Finalize greedy iterations whose window closed by this boundary.
    while (next_window < windows.size() && windows[next_window].end <= t) {
      const IterWindow& w = windows[next_window++];
      const auto durs_it = iter_compute.find(w.index);
      if (durs_it == iter_compute.end()) continue;
      const std::map<std::uint32_t, double>& durs = durs_it->second;
      std::set<std::uint32_t> active;
      for (const auto& [lane, d] : durs) {
        if (d > 0.0) active.insert(lane);
      }
      const auto ratio_of = [&](std::uint32_t lane) {
        double others = 0.0;
        for (const std::uint32_t l : active) {
          if (l != lane) others += durs.at(l);
        }
        others /= static_cast<double>(active.size() - 1);
        return others > 0.0 ? durs.at(lane) / others : 0.0;
      };
      if (active != straggler_active) {
        // New regime: drop history, clear any open incidents, record this
        // iteration as the fresh baseline and skip detection (warm-up).
        straggler_baseline.clear();
        for (auto& [lane, flag] : straggler_state) flag = LaneFlag{};
        straggler_active = active;
        if (active.size() >= 2) {
          for (const std::uint32_t lane : active) {
            straggler_baseline[lane].push_back(ratio_of(lane));
          }
        }
        continue;
      }
      if (active.size() < 2) continue;
      for (const std::uint32_t lane : active) {
        const double r = ratio_of(lane);
        std::vector<double>& hist = straggler_baseline[lane];
        const bool breached =
            !hist.empty() &&
            r >= kStragglerRatio * std::max(1.0, median_of(hist));
        LaneFlag& flag = straggler_state[lane];
        flag.breached = breached;
        flag.value = r;
        flag.iteration = w.index;
        if (breached && !flag.latched) {
          flag.latched = true;
          flag.latched_value = r;
          flag.latched_iteration = w.index;
        }
        // Anomalous iterations stay out of the baseline, so a straggle
        // burst cannot talk its way into normality.
        if (!breached) hist.push_back(r);
      }
    }

    // dead_rank: heartbeat silence relative to the fleet's newest
    // heartbeat. Alive ranks all heartbeat at each collective's completion
    // time, so a live lane's gap is exactly zero.
    double fleet_last = -1.0;
    const SeriesKey hb_lo{"heartbeat", 0};
    const SeriesKey hb_hi{"heartbeat", kEngineLane};
    for (auto it = series.lower_bound(hb_lo); it != series.end() && it->first < hb_hi;
         ++it) {
      fleet_last = std::max(fleet_last, it->second.last_at);
    }
    if (fleet_last >= 0.0) {
      for (auto it = series.lower_bound(hb_lo); it != series.end() && it->first < hb_hi;
           ++it) {
        const double gap = fleet_last - it->second.last_at;
        set_condition("dead_rank", it->first.second, {}, gap > kHeartbeatTimeout, gap, t, -1);
      }
    }

    // straggler: the per-iteration deviation flags computed above. A latch
    // set by an interval-interior breach fires this boundary and (if the
    // newest iteration is clean again) clears at the next one.
    for (auto& [lane, flag] : straggler_state) {
      const bool breached = flag.latched || flag.breached;
      set_condition("straggler", lane, {}, breached,
                    flag.latched ? flag.latched_value : flag.value, t,
                    flag.latched ? flag.latched_iteration : flag.iteration);
      flag.latched = false;
    }

    // message_drop: the retransmit counter grew within the trailing window.
    const SeriesKey rt_lo{"comm_retransmits", 0};
    const SeriesKey rt_hi{"comm_retransmits", kEngineLane};
    for (auto it = series.lower_bound(rt_lo); it != series.end() && it->first < rt_hi;
         ++it) {
      const double delta = it->second.last - it->second.value_at(t - kDropWindow);
      set_condition("message_drop", it->first.second, {}, delta > 0.0, delta, t, -1);
    }

    // comm_overhead: cumulative comm fraction of busy time (Fig. 8).
    const double busy = busy_time.at(t);
    const double comm = comm_time.at(t);
    const double frac = busy > 0.0 ? comm / busy : 0.0;
    set_condition("comm_overhead", kEngineLane, {},
                  busy > 0.0 && frac > kCommOverheadThreshold, frac, t, -1);

    // gpu_collapse: a computing lane whose DRAM throughput sits far below
    // the fleet median — the telemetry shadow of a throttled or straggling
    // device. Idle lanes (value 0) are out of both the median and the
    // check, so ordinary end-of-iteration stagger never fires.
    const SeriesKey dr_lo{"gpu_dram_throughput", 0};
    const SeriesKey dr_hi{"gpu_dram_throughput", kEngineLane};
    std::vector<std::pair<std::uint32_t, double>> computing;
    for (auto it = series.lower_bound(dr_lo); it != series.end() && it->first < dr_hi;
         ++it) {
      if (it->second.last > 0.0) computing.emplace_back(it->first.second, it->second.last);
    }
    double med = 0.0;
    if (computing.size() >= 2) {
      std::vector<double> values;
      values.reserve(computing.size());
      for (const auto& [lane, v] : computing) values.push_back(v);
      med = median_of(std::move(values));
    }
    for (auto it = series.lower_bound(dr_lo); it != series.end() && it->first < dr_hi;
         ++it) {
      const double v = it->second.last;
      const bool breached = computing.size() >= 2 && v > 0.0 && med > 0.0 &&
                            v < kCollapseFraction * med;
      set_condition("gpu_collapse", it->first.second, {}, breached,
                    med > 0.0 ? v / med : 0.0, t, -1);
    }

    // job_abort: the driver's job_restart instant (it genuinely knows the
    // allocation bounced — that is operational telemetry, not ground
    // truth). Fires for exactly one boundary per restart.
    std::uint32_t bounced = 0;
    while (next_restart < restarts.size() && restarts[next_restart] <= t) {
      ++next_restart;
      ++bounced;
    }
    set_condition("job_abort", kEngineLane, {}, bounced > 0, static_cast<double>(bounced), t,
                  -1);

    // --- serve-layer detectors -------------------------------------------
    // These key off the serve scheduler's (possibly label-suffixed)
    // counters; cluster traces never emit serve.* series, so on them every
    // check below is a no-op.

    // queue_saturation: the admission queue pinned at (a fraction of) its
    // declared capacity. Needs the serve.queue_capacity counter the
    // service emits once at t=0.
    const SeriesKey qd_lo{"serve.queue_depth", 0};
    for (auto it = series.lower_bound(qd_lo);
         it != series.end() && it->first.first == "serve.queue_depth"; ++it) {
      const auto cap_it = series.find({"serve.queue_capacity", it->first.second});
      const double cap = cap_it != series.end() ? cap_it->second.last : 0.0;
      const double depth = it->second.last;
      set_condition("queue_saturation", it->first.second, {},
                    cap > 0.0 && depth >= kQueueSaturationFraction * cap,
                    cap > 0.0 ? depth / cap : 0.0, t, -1);
    }

    // tenant_starvation: one tenant's oldest admitted-but-not-scheduled
    // job has aged far past the *other* tenants' mean wait age. The
    // fleet-relative baseline is the point — a global backlog ages every
    // tenant together and stays silent; only asymmetry fires.
    std::map<std::uint32_t, std::vector<std::pair<std::string, double>>> waits;
    for (const auto& [key, st] : series) {
      const auto& parts = split_of(key.first);
      if (parts.first != "serve.wait_age") continue;
      waits[key.second].emplace_back(tenant_label(parts.second), st.last);
    }
    for (const auto& [lane, entries] : waits) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        double others = 0.0;
        for (std::size_t j = 0; j < entries.size(); ++j) {
          if (j != i) others += entries[j].second;
        }
        const bool enough = entries.size() >= 2;
        const double mean_others =
            enough ? others / static_cast<double>(entries.size() - 1) : 0.0;
        const double age = entries[i].second;
        set_condition("tenant_starvation", lane, entries[i].first,
                      enough && age >= kStarvationMinAge &&
                          age > kStarvationRatio * mean_others,
                      age, t, -1);
      }
    }

    // slo_fast_burn / slo_slow_burn: windowed bad fraction over budget,
    // the SRE multi-window pattern on the simulated clock. Driven by the
    // cumulative serve.slo_total / serve.slo_bad counters plus the budget
    // objectives handed in via options.slo (first matching objective per
    // tenant). A window needs kBurnMinEvents resolved requests before it
    // can fire, so one stray rejection is not a burn.
    if (!options.slo.empty()) {
      for (auto it = series.begin(); it != series.end(); ++it) {
        const auto& parts = split_of(it->first.first);
        if (parts.first != "serve.slo_total") continue;
        const std::string tenant = tenant_label(parts.second);
        const SloObjective* budget = nullptr;
        for (const SloObjective& o : options.slo) {
          if (o.kind != SloKind::kBudget) continue;
          if (o.tenant == "*" || o.tenant == tenant) {
            budget = &o;
            break;
          }
        }
        if (!budget) continue;
        const SeriesState& total = it->second;
        const auto bad_it =
            series.find({series_with_labels("serve.slo_bad", parts.second),
                         it->first.second});
        const SeriesState* bad = bad_it != series.end() ? &bad_it->second : nullptr;
        const auto burn_over = [&](double window) {
          const double dtotal = total.last - total.value_at(t - window);
          if (dtotal < static_cast<double>(kBurnMinEvents)) return 0.0;
          const double dbad = bad ? bad->last - bad->value_at(t - window) : 0.0;
          return (dbad / dtotal) / budget->target;
        };
        const double fast = burn_over(budget->fast_window);
        const double slow = burn_over(budget->window);
        set_condition("slo_fast_burn", it->first.second, tenant,
                      fast >= kFastBurnThreshold, fast, t, -1);
        set_condition("slo_slow_burn", it->first.second, tenant,
                      slow >= kSlowBurnThreshold, slow, t, -1);
      }
    }

    // cache_thrash: invalidation-driven dataset rebuilds clustering inside
    // the trailing window — the cache is being churned faster than it can
    // amortize.
    const SeriesKey cr_lo{"serve.cache_rebuilds", 0};
    for (auto it = series.lower_bound(cr_lo);
         it != series.end() && it->first.first == "serve.cache_rebuilds"; ++it) {
      const double delta = it->second.last - it->second.value_at(t - kThrashWindow);
      set_condition("cache_thrash", it->first.second, {},
                    delta >= static_cast<double>(kThrashRebuilds), delta, t, -1);
    }
  }

  // Whatever is still firing at the end of telemetry stays open, clear time
  // pinned to the final boundary.
  for (const auto& [key, index] : open) report.incidents[index].cleared = t;

  return report;
}

void record_health(const HealthReport& report, MetricsRegistry& metrics) {
  Counter& total = metrics.counter("health.incidents");
  for (const Incident& inc : report.incidents) {
    Labels labels{{"lane", std::to_string(inc.lane)}, {"rule", inc.rule}};
    if (!inc.tenant.empty()) labels.emplace_back("tenant", inc.tenant);
    metrics.counter("health.incidents", std::move(labels)).add();
    total.add();
  }
}

std::string health_text(const HealthReport& report, bool summary_only) {
  std::string out = "multihit health monitor\n";
  out += "  makespan " + json_number(report.makespan) + " s, " +
         std::to_string(report.boundaries) + " boundaries @ " +
         json_number(report.options.sample_every) + " s cadence\n";
  out += "  telemetry from " + std::to_string(report.rank_lanes) + " rank lane(s)\n";
  std::map<std::string, std::uint32_t> by_rule;
  std::uint32_t open_count = 0;
  for (const Incident& inc : report.incidents) {
    ++by_rule[inc.rule];
    if (inc.open) ++open_count;
  }
  out += "  incidents: " + std::to_string(report.incidents.size()) + " (" +
         std::to_string(open_count) + " open)\n";
  for (const auto& [rule, count] : by_rule) {
    out += "    " + rule + ": " + std::to_string(count) + " incident(s)\n";
  }
  if (summary_only) return out;
  for (const Incident& inc : report.incidents) {
    std::string lane;
    if (inc.lane == kEngineLane) {
      lane = "engine";
    } else if (inc.lane == kSchedulerLane) {
      lane = "scheduler";
    } else if (inc.lane > kEngineLane) {
      lane = "serve lane " + std::to_string(inc.lane - kEngineLane);
    } else {
      lane = "rank " + std::to_string(inc.lane);
    }
    if (!inc.tenant.empty()) lane += " tenant=" + inc.tenant;
    out += "  [" + inc.rule + "] " + lane + " fired t=" + json_number(inc.fired) +
           (inc.open ? " s (still open at t=" : " s (cleared t=") +
           json_number(inc.cleared) + " s), value " + json_number(inc.value);
    if (!inc.span.empty()) out += ", in " + inc.span;
    if (inc.iteration >= 0) out += ", iteration " + std::to_string(inc.iteration);
    out += "\n";
  }
  return out;
}

std::vector<std::string> health_crosscheck(const HealthReport& report,
                                           const JsonValue& metrics) {
  std::vector<std::string> mismatches;
  std::map<std::string, double> totals;
  try {
    totals = metrics_counter_totals(metrics);
  } catch (const AnalysisError& e) {
    return {e.what()};
  }
  std::set<std::uint32_t> dead_lanes;
  bool any_drop_incident = false;
  for (const Incident& inc : report.incidents) {
    if (inc.rule == "dead_rank") dead_lanes.insert(inc.lane);
    if (inc.rule == "message_drop") any_drop_incident = true;
  }
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  const double ranks_lost = total("cluster.ranks_lost");
  if (static_cast<double>(dead_lanes.size()) != ranks_lost) {
    mismatches.push_back("dead_rank incidents cover " + std::to_string(dead_lanes.size()) +
                         " lane(s) but metrics count cluster.ranks_lost=" +
                         json_number(ranks_lost));
  }
  const double retransmits = total("comm.retransmits");
  if ((retransmits > 0.0) != any_drop_incident) {
    mismatches.push_back(std::string("message_drop incidents ") +
                         (any_drop_incident ? "fired" : "absent") +
                         " but metrics count comm.retransmits=" + json_number(retransmits));
  }

  // The health.incidents series, when the snapshot holds any, must be what
  // record_health writes for this report.
  if (totals.count("health.incidents") == 0) return mismatches;
  MetricsRegistry replayed;
  record_health(report, replayed);
  try {
    std::string differs =
        metrics_family_mismatch(metrics, replayed.snapshot(), "health.incidents");
    if (!differs.empty()) mismatches.push_back(std::move(differs));
  } catch (const AnalysisError& e) {
    mismatches.push_back(e.what());
  }
  return mismatches;
}

void annotate_trace(Tracer& trace, const HealthReport& report) {
  for (const Incident& inc : report.incidents) {
    trace.instant(inc.lane, "health." + inc.rule, "health", inc.fired,
                  {{"value", json_number(inc.value)},
                   {"cleared", json_number(inc.cleared)},
                   {"open", inc.open ? "true" : "false"}});
  }
}

std::vector<TruthEvent> truth_from_trace(const Tracer& trace) {
  std::vector<const TraceEvent*> faults;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.instant && ev.category == "fault") faults.push_back(&ev);
  }
  std::stable_sort(faults.begin(), faults.end(), [](const TraceEvent* a, const TraceEvent* b) {
    return std::tie(a->begin, a->lane) < std::tie(b->begin, b->lane);
  });
  std::vector<TruthEvent> out;
  for (const TraceEvent* ev : faults) {
    const std::string kind = ev->name.rfind("fault.", 0) == 0 ? ev->name.substr(6) : "";
    if (!primary_rule(kind)) throw MonitorError(event_label(*ev) + ": unknown fault kind");
    const std::optional<std::uint32_t> iteration = u32_arg<MonitorError>(*ev, "iteration");
    if (!iteration) throw MonitorError(event_label(*ev) + ": no iteration arg");
    out.push_back({kind, ev->lane == kEngineLane ? 0 : ev->lane, *iteration, ev->begin});
  }
  return out;
}

bool HealthScore::perfect() const noexcept {
  if (false_positives != 0) return false;
  for (const auto& [kind, score] : by_class) {
    if (score.detected != score.injected) return false;
  }
  return true;
}

HealthScore score_incidents(const HealthReport& report,
                            const std::vector<TruthEvent>& truth,
                            double detection_window) {
  if (!(detection_window > 0.0)) {
    throw MonitorError("score_incidents needs a positive detection window");
  }
  // The corroborating classes a fault legitimately drags along (a crash's
  // detection windows and a straggler's reduce skew both really are comm
  // overhead; a straggler's slow device really is a throughput collapse).
  const auto corroborates = [](const std::string& kind, const std::string& rule) {
    if (kind == "crash") return rule == "gpu_collapse" || rule == "comm_overhead";
    if (kind == "straggler") return rule == "gpu_collapse" || rule == "comm_overhead";
    if (kind == "drop") return rule == "comm_overhead";
    return false;
  };

  HealthScore score;
  std::vector<bool> matched(report.incidents.size(), false);
  std::map<std::string, std::vector<double>> latencies;

  for (const TruthEvent& e : truth) {
    const char* want = primary_rule(e.kind);
    if (!want) throw MonitorError("unknown truth kind '" + e.kind + "'");
    ClassScore& cls = score.by_class[e.kind];
    ++cls.injected;
    const double lo = e.sim_time;
    const double hi = e.sim_time + detection_window;
    const std::uint32_t lane = e.kind == "abort" ? kEngineLane : e.rank;
    double first_fire = -1.0;
    for (std::size_t i = 0; i < report.incidents.size(); ++i) {
      const Incident& inc = report.incidents[i];
      if (!(inc.fired <= hi && inc.cleared >= lo)) continue;
      if (inc.rule == want && inc.lane == lane) {
        matched[i] = true;
        if (first_fire < 0.0 || inc.fired < first_fire) first_fire = inc.fired;
      } else if (corroborates(e.kind, inc.rule) &&
                 (inc.lane == lane || inc.lane == kEngineLane)) {
        matched[i] = true;
      }
    }
    if (first_fire >= 0.0) {
      ++cls.detected;
      latencies[e.kind].push_back(std::max(0.0, first_fire - e.sim_time));
    } else {
      score.misses.push_back(e.kind + " rank " + std::to_string(e.rank) + " @ iteration " +
                             std::to_string(e.iteration) + " (t=" +
                             json_number(e.sim_time) + " s) undetected within " +
                             json_number(detection_window) + " s");
    }
  }

  for (auto& [kind, values] : latencies) {
    ClassScore& cls = score.by_class[kind];
    double sum = 0.0;
    for (const double v : values) {
      sum += v;
      cls.latency_max = std::max(cls.latency_max, v);
    }
    cls.latency_mean = sum / static_cast<double>(values.size());
  }

  for (std::size_t i = 0; i < report.incidents.size(); ++i) {
    const Incident& inc = report.incidents[i];
    if (matched[i]) continue;
    ++score.false_positives;
    score.spurious.push_back(inc.rule + " lane " + std::to_string(inc.lane) + " fired t=" +
                             json_number(inc.fired) + " s (value " +
                             json_number(inc.value) + ")");
  }
  return score;
}

std::string score_text(const HealthScore& score) {
  std::string out = "health score vs injected ground truth\n";
  for (const auto& [kind, cls] : score.by_class) {
    out += "  " + kind + ": " + std::to_string(cls.detected) + "/" +
           std::to_string(cls.injected) + " detected";
    if (cls.detected > 0) {
      out += ", latency mean " + json_number(cls.latency_mean) + " s, max " +
             json_number(cls.latency_max) + " s";
    }
    out += "\n";
  }
  out += "  false positives: " + std::to_string(score.false_positives) + "\n";
  for (const std::string& miss : score.misses) out += "  MISS: " + miss + "\n";
  for (const std::string& fp : score.spurious) out += "  SPURIOUS: " + fp + "\n";
  out += score.perfect() ? "  verdict: PERFECT\n" : "  verdict: IMPERFECT\n";
  return out;
}

}  // namespace multihit::obs
