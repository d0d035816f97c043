// Health-monitor tests: sampler/detector units on hand-built traces, a
// ground-truth sweep (4 injected fault classes x {EA, ED} schedulers)
// asserting full recall with zero false positives and bounded detection
// latency, fault-free runs that must stay silent, the bit-identical-off
// differential, incident well-formedness properties over random fault
// plans, the health.incidents metrics form, and the ground truth read back
// from the trace's fault instants.

#include "obs/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/distributed.hpp"
#include "core/engine.hpp"
#include "data/generator.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/analyze.hpp"
#include "obs/recorder.hpp"

namespace multihit {
namespace {

using obs::HealthReport;
using obs::HealthScore;
using obs::Incident;
using obs::JsonValue;
using obs::kEngineLane;
using obs::MonitorError;
using obs::MonitorOptions;
using obs::Tracer;
using obs::TruthEvent;

Dataset small_dataset(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = seed;
  return generate_dataset(spec);
}

/// Runs the functional cluster pipeline with a recorder attached and returns
/// the recorder by reference through `rec`.
ClusterRunResult recorded_run(const Dataset& data, std::uint32_t nodes,
                              SchedulerKind scheduler, FaultPlan faults,
                              obs::Recorder& rec, std::uint32_t checkpoint_every = 0) {
  SummitConfig config;
  config.nodes = nodes;
  const ClusterRunner runner(config);
  DistributedOptions options;
  options.scheduler = scheduler;
  options.faults = std::move(faults);
  options.recorder = &rec;
  options.checkpoint_every = checkpoint_every;
  return runner.run(data, options);
}

/// Serializes to Chrome format and parses back — the monitor sees exactly
/// the microsecond-rounded trace an offline `obstool monitor` replay would.
Tracer replay(const Tracer& trace) {
  return obs::tracer_from_chrome(JsonValue::parse(trace.to_chrome_json()));
}

TEST(MonitorOptionsValidation, RejectsIllFormedConfigurations) {
  const Tracer empty;
  const auto with = [&](auto mutate) {
    MonitorOptions o;
    mutate(o);
    return o;
  };
  EXPECT_THROW(obs::monitor_trace(empty, with([](MonitorOptions& o) { o.sample_every = 0.0; })),
               MonitorError);
  EXPECT_THROW(obs::monitor_trace(empty, with([](MonitorOptions& o) { o.window_samples = 1; })),
               MonitorError);
}

// ------------------------------------------------------------------- sampler
// The ring's trailing-window arithmetic, pinned through the two detectors
// that read it: message_drop (value_at one interval back) and cache_thrash
// (a window wider than the retained history).

TEST(MonitorSampler, SnapshotsExactValuesAtBoundaries) {
  // kDropWindow (0.05 s) is narrower than the 0.25 s cadence, so each
  // boundary compares the newest value with the previous boundary's
  // snapshot. A sample stamped exactly on a boundary belongs to it.
  Tracer trace;
  trace.counter(0, "comm_retransmits", 0.125, 0.0);
  trace.counter(0, "comm_retransmits", 0.5, 3.0);
  trace.counter(0, "comm_retransmits", 1.0, 3.0);
  MonitorOptions options;
  options.sample_every = 0.25;
  const HealthReport report = obs::monitor_trace(trace, options);
  ASSERT_EQ(report.incidents.size(), 1u);
  const Incident& inc = report.incidents[0];
  EXPECT_EQ(inc.rule, "message_drop");
  EXPECT_DOUBLE_EQ(inc.fired, 0.5);    // 3 now, 0 at the 0.25 snapshot
  EXPECT_DOUBLE_EQ(inc.cleared, 0.75);  // 3 now, 3 at the 0.5 snapshot
  EXPECT_DOUBLE_EQ(inc.value, 3.0);
  EXPECT_FALSE(inc.open);
}

TEST(MonitorSampler, RingWindowDropsOldestBeyondDepth) {
  // Rebuilds reach 3 by t=4 against a 60 s kThrashWindow. A ring that still
  // holds the series' first snapshot reads 0 before it (counters count from
  // zero), so the delta is 3 = kThrashRebuilds and cache_thrash fires — also
  // when the ring is exactly full. Once the ring has dropped a snapshot, a
  // read older than it clamps to the oldest value kept (1 at t=2), so the
  // delta is only 2.
  Tracer trace;
  for (int i = 0; i <= 3; ++i) {
    trace.counter(obs::kSchedulerLane, "serve.cache_rebuilds", 0.5 + i, static_cast<double>(i));
  }
  trace.counter(obs::kSchedulerLane, "serve.cache_rebuilds", 10.0, 3.0);
  const auto thrash_incidents = [&](std::uint32_t window_samples) {
    MonitorOptions options;
    options.sample_every = 1.0;
    options.window_samples = window_samples;
    return obs::monitor_trace(trace, options).incidents;
  };
  for (const std::uint32_t depth : {4u, 16u}) {
    const std::vector<Incident> fired = thrash_incidents(depth);
    ASSERT_EQ(fired.size(), 1u) << "depth " << depth;
    EXPECT_EQ(fired[0].rule, "cache_thrash");
    EXPECT_DOUBLE_EQ(fired[0].fired, 4.0);
    EXPECT_DOUBLE_EQ(fired[0].value, 3.0);
  }
  EXPECT_TRUE(thrash_incidents(3).empty());
}

// ----------------------------------------------------------------- detectors

TEST(MonitorDetectors, DeadRankFiresOnTheSilentLaneOnly) {
  Tracer trace;
  for (int i = 1; i <= 8; ++i) {
    trace.counter(0, "heartbeat", 0.25 * i, static_cast<double>(i));
    if (i <= 4) trace.counter(1, "heartbeat", 0.25 * i, static_cast<double>(i));
  }
  MonitorOptions options;
  options.sample_every = 0.25;
  const HealthReport report = obs::monitor_trace(trace, options);
  ASSERT_EQ(report.incidents.size(), 1u);
  const Incident& inc = report.incidents[0];
  EXPECT_EQ(inc.rule, "dead_rank");
  EXPECT_EQ(inc.lane, 1u);
  // Lane 1 last beats at 1.0. At the next boundary the fleet is at 1.25: the
  // 0.25 s gap already exceeds kHeartbeatTimeout (0.05 s).
  EXPECT_DOUBLE_EQ(inc.fired, 1.25);
  EXPECT_TRUE(inc.open);
}

TEST(MonitorDetectors, PersistentImbalanceIsBaselineNotStraggle) {
  // Lanes with a steady 2:1 compute split (an equi-distance-style schedule)
  // must never fire; only a *change* — lane 1 jumping 4x in iteration 3 —
  // does.
  Tracer trace;
  for (int i = 0; i < 4; ++i) {
    const double t0 = 0.5 * i;
    const double lane1 = i == 3 ? 0.5 : 0.125;
    trace.complete(kEngineLane, "greedy_iteration", "engine", t0, t0 + 0.5 + (i == 3 ? 0.125 : 0.0),
                   {{"iteration", std::to_string(i)}});
    trace.complete(0, "compute", "compute", t0, t0 + 0.25,
                   {{"iteration", std::to_string(i)}});
    trace.complete(1, "compute", "compute", t0, t0 + lane1,
                   {{"iteration", std::to_string(i)}});
  }
  MonitorOptions options;
  options.sample_every = 0.25;
  const HealthReport report = obs::monitor_trace(trace, options);
  std::vector<Incident> stragglers;
  for (const Incident& inc : report.incidents) {
    if (inc.rule == "straggler") stragglers.push_back(inc);
  }
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0].lane, 1u);
  EXPECT_EQ(stragglers[0].iteration, 3);
  EXPECT_GE(stragglers[0].value, 2.0);  // 0.5 / 0.25
}

TEST(MonitorDetectors, FaultCategoryEventsAreInvisible) {
  Tracer trace;
  trace.instant(1, "fault.crash", "fault", 0.5, {{"iteration", "0"}});
  trace.instant(kEngineLane, "fault.abort", "fault", 0.75, {{"iteration", "1"}});
  const HealthReport report = obs::monitor_trace(trace, MonitorOptions{});
  EXPECT_TRUE(report.incidents.empty());
  EXPECT_EQ(report.boundaries, 0u);  // ground truth does not even set the horizon
}

TEST(MonitorDetectors, MalformedIterationArgsAreRefusedNamingTheEvent) {
  // The iteration windows and per-rank compute samples key on the spans'
  // `iteration` arg: a present value must be a u32, not read as 0 (or as
  // its leading digits).
  for (const char* bad : {"x", "-1", "12abc", "4294967296"}) {
    for (const bool engine : {true, false}) {
      Tracer trace;
      const char* name = engine ? "greedy_iteration" : "compute";
      trace.complete(engine ? kEngineLane : 0, name, engine ? "engine" : "compute", 0.0, 1.0,
                     {{"iteration", bad}});
      try {
        obs::monitor_trace(trace, MonitorOptions{});
        ADD_FAILURE() << "accepted " << name << " iteration '" << bad << "'";
      } catch (const MonitorError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("span '") + name + "'"), std::string::npos) << what;
        EXPECT_NE(what.find(std::string("iteration '") + bad + "'"), std::string::npos) << what;
      }
    }
  }
  // An absent arg is no window and no compute sample, as before.
  Tracer trace;
  trace.complete(kEngineLane, "greedy_iteration", "engine", 0.0, 1.0);
  trace.complete(0, "compute", "compute", 0.0, 1.0);
  EXPECT_NO_THROW(obs::monitor_trace(trace, MonitorOptions{}));
}

TEST(MonitorDetectors, JobRestartInstantYieldsOneAbortIncident) {
  Tracer trace;
  trace.counter(0, "heartbeat", 0.125, 1.0);
  trace.counter(0, "heartbeat", 1.0, 2.0);
  trace.instant(kEngineLane, "job_restart", "driver", 0.375, {{"iteration", "2"}});
  MonitorOptions options;
  options.sample_every = 0.25;
  const HealthReport report = obs::monitor_trace(trace, options);
  std::vector<Incident> aborts;
  for (const Incident& inc : report.incidents) {
    if (inc.rule == "job_abort") aborts.push_back(inc);
  }
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].lane, kEngineLane);
  EXPECT_DOUBLE_EQ(aborts[0].fired, 0.5);
  EXPECT_DOUBLE_EQ(aborts[0].cleared, 0.75);  // one boundary wide
  EXPECT_FALSE(aborts[0].open);
}

// ------------------------------------------------- ground-truth sweep (4x2)

struct SweepCase {
  const char* name;
  FaultKind kind;
  SchedulerKind scheduler;
};

/// One injected fault of `kind`, as the sweep plants it (an abort needs a
/// checkpoint cadence to restart from).
struct FaultCase {
  FaultPlan plan;
  std::uint32_t checkpoint_every = 0;
};

FaultCase one_fault(FaultKind kind) {
  FaultCase out;
  switch (kind) {
    case FaultKind::kRankCrash:
      out.plan.events.push_back({FaultKind::kRankCrash, 1, 1, 0.5, 1});
      break;
    case FaultKind::kStraggler:
      // Iteration >= 1 (iteration 0 is the detector's baseline warm-up) and
      // factor >= 2.5 so the deviation clears the 1.6x fire ratio.
      out.plan.events.push_back({FaultKind::kStraggler, 2, 1, 3.0, 2});
      break;
    case FaultKind::kMessageDrop:
      out.plan.events.push_back({FaultKind::kMessageDrop, 2, 1, 0.0, 2});
      break;
    case FaultKind::kJobAbort:
      out.plan.events.push_back({FaultKind::kJobAbort, 0, 2, 0.0, 1});
      out.checkpoint_every = 1;
      break;
  }
  return out;
}

class MonitorGroundTruth : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MonitorGroundTruth, DetectsInjectedFaultsPerfectly) {
  const SweepCase& param = GetParam();
  const FaultCase fault = one_fault(param.kind);
  const Dataset data = small_dataset(601);
  obs::Recorder rec;
  const ClusterRunResult result =
      recorded_run(data, 4, param.scheduler, fault.plan, rec, fault.checkpoint_every);
  ASSERT_FALSE(result.fault_events.empty());

  const HealthReport report = obs::monitor_trace(replay(rec.trace));
  const std::vector<TruthEvent> truth = obs::truth_from_trace(rec.trace);
  const HealthScore score = obs::score_incidents(report, truth, 0.25);

  EXPECT_TRUE(score.perfect()) << obs::score_text(score) << obs::health_text(report);
  EXPECT_EQ(score.false_positives, 0u);
  const obs::ClassScore& cls = score.by_class.at(fault_kind_name(param.kind));
  EXPECT_EQ(cls.detected, cls.injected);
  EXPECT_GT(cls.injected, 0u);
  // Latency: within the comm model's failure-detection window plus a few
  // sampling intervals — detection never drags a full scoring window behind
  // the injection.
  EXPECT_LE(cls.latency_max, 0.15) << obs::score_text(score);
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndSchedulers, MonitorGroundTruth,
    ::testing::Values(
        SweepCase{"crash_ea", FaultKind::kRankCrash, SchedulerKind::kEquiArea},
        SweepCase{"crash_ed", FaultKind::kRankCrash, SchedulerKind::kEquiDistance},
        SweepCase{"straggler_ea", FaultKind::kStraggler, SchedulerKind::kEquiArea},
        SweepCase{"straggler_ed", FaultKind::kStraggler, SchedulerKind::kEquiDistance},
        SweepCase{"drop_ea", FaultKind::kMessageDrop, SchedulerKind::kEquiArea},
        SweepCase{"drop_ed", FaultKind::kMessageDrop, SchedulerKind::kEquiDistance},
        SweepCase{"abort_ea", FaultKind::kJobAbort, SchedulerKind::kEquiArea},
        SweepCase{"abort_ed", FaultKind::kJobAbort, SchedulerKind::kEquiDistance}),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return info.param.name; });

// --------------------------------------------------------- fault-free runs

TEST(MonitorFaultFree, TwentySeededRunsStaySilent) {
  // Zero false positives on clean runs, across seeds, fleet sizes, and both
  // schedulers — the equi-distance schedule's deliberate imbalance included.
  std::uint32_t runs = 0;
  for (const std::uint64_t seed : {701u, 702u, 703u, 704u, 705u}) {
    for (const SchedulerKind scheduler :
         {SchedulerKind::kEquiArea, SchedulerKind::kEquiDistance}) {
      for (const std::uint32_t nodes : {3u, 4u}) {
        const Dataset data = small_dataset(seed);
        obs::Recorder rec;
        recorded_run(data, nodes, scheduler, {}, rec);
        const HealthReport report = obs::monitor_trace(replay(rec.trace));
        EXPECT_TRUE(report.incidents.empty())
            << "seed " << seed << " scheduler " << static_cast<int>(scheduler) << " nodes "
            << nodes << "\n"
            << obs::health_text(report);
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 20u);
}

// ------------------------------------------------------ bit-identical-off

TEST(MonitorDifferential, MonitoringNeverPerturbsTheRun) {
  const Dataset data = small_dataset(801);
  FaultPlan plan;
  plan.events.push_back({FaultKind::kRankCrash, 1, 1, 0.5, 1});

  // Uninstrumented reference.
  SummitConfig config;
  config.nodes = 3;
  const ClusterRunner runner(config);
  DistributedOptions bare;
  bare.faults = plan;
  const ClusterRunResult off = runner.run(data, bare);

  // Instrumented + monitored run.
  obs::Recorder rec;
  const ClusterRunResult on = recorded_run(data, 3, SchedulerKind::kEquiArea, plan, rec);
  const std::string trace_before = rec.trace.to_chrome_json();
  const std::string metrics_before = rec.metrics.to_json();
  const auto health_metrics = [&rec] {
    obs::MetricsRegistry metrics;
    obs::record_health(obs::monitor_trace(replay(rec.trace)), metrics);
    return metrics.to_json();
  };
  const std::string health = health_metrics();

  // Selections are bit-identical with monitoring off.
  EXPECT_EQ(on.greedy.combinations(), off.greedy.combinations());
  EXPECT_DOUBLE_EQ(on.total_time, off.total_time);
  // Monitoring is a pure read: the primary artifacts are byte-identical
  // before and after, and a second replay records byte-identical counters.
  EXPECT_EQ(rec.trace.to_chrome_json(), trace_before);
  EXPECT_EQ(rec.metrics.to_json(), metrics_before);
  EXPECT_EQ(health_metrics(), health);
}

// ------------------------------------------------------ incident properties

TEST(MonitorProperties, IncidentsAreWellFormedUnderRandomFaultPlans) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    RandomFaultSpec spec;
    spec.seed = seed;
    spec.ranks = 4;
    spec.iterations = 8;
    spec.crashes = 1.0;
    spec.stragglers = 1.0;
    spec.drops = 1.0;
    const FaultPlan plan = random_fault_plan(spec);
    const Dataset data = small_dataset(900 + seed);
    obs::Recorder rec;
    recorded_run(data, 4, SchedulerKind::kEquiArea, plan, rec);
    const HealthReport report = obs::monitor_trace(replay(rec.trace));

    const double dt = report.options.sample_every;
    std::map<std::pair<std::string, std::uint32_t>, double> last_cleared;
    for (const Incident& inc : report.incidents) {
      // Fire/clear lie on the sample-boundary grid and are well-ordered.
      EXPECT_LE(inc.fired, inc.cleared);
      EXPECT_GE(inc.fired, dt);
      const double fk = inc.fired / dt;
      const double ck = inc.cleared / dt;
      EXPECT_NEAR(fk, std::round(fk), 1e-6) << inc.rule;
      EXPECT_NEAR(ck, std::round(ck), 1e-6) << inc.rule;
      // Per (rule, lane), incidents are disjoint and monotone on the sim
      // clock: a new one can only open after the previous cleared.
      const auto key = std::make_pair(inc.rule, inc.lane);
      const auto it = last_cleared.find(key);
      if (it != last_cleared.end()) {
        EXPECT_GT(inc.fired, it->second) << inc.rule;
      }
      last_cleared[key] = inc.cleared;
      if (inc.open) {
        EXPECT_DOUBLE_EQ(inc.cleared, dt * static_cast<double>(report.boundaries));
      }
    }
  }
}

// ------------------------------------------------------------ metrics + docs

TEST(MonitorMetrics, RecordHealthCountsEveryGroupAndTheTotal) {
  HealthReport groups;
  groups.incidents.resize(3);
  groups.incidents[0].rule = "dead_rank";
  groups.incidents[0].lane = 1;
  groups.incidents[1] = groups.incidents[0];
  groups.incidents[2].rule = "tenant_starvation";
  groups.incidents[2].lane = obs::kSchedulerLane;
  groups.incidents[2].tenant = "bronze";
  obs::MetricsRegistry metrics;
  obs::record_health(groups, metrics);
  EXPECT_EQ(metrics.series_count(), 3u);
  EXPECT_DOUBLE_EQ(metrics.counter("health.incidents").value(), 3.0);
  EXPECT_DOUBLE_EQ(
      metrics.counter("health.incidents", {{"lane", "1"}, {"rule", "dead_rank"}}).value(), 2.0);
  EXPECT_DOUBLE_EQ(metrics
                       .counter("health.incidents",
                                {{"lane", std::to_string(obs::kSchedulerLane)},
                                 {"rule", "tenant_starvation"},
                                 {"tenant", "bronze"}})
                       .value(),
                   1.0);
  EXPECT_EQ(metrics.series_count(), 3u) << "every lookup above hit a recorded series";

  // A silent trace still records the total, at 0.
  obs::MetricsRegistry silent;
  obs::record_health(obs::monitor_trace(Tracer{}), silent);
  EXPECT_EQ(silent.to_json(),
            "{\"schema\":\"multihit.metrics.v1\",\"counters\":[{\"name\":\"health.incidents\","
            "\"labels\":{},\"value\":0}],\"gauges\":[],\"histograms\":[]}");

  // A monitored crash run: the total is the incident count, and two
  // replays record byte-identical snapshots.
  const Dataset data = small_dataset(811);
  FaultPlan plan;
  plan.events.push_back({FaultKind::kRankCrash, 1, 1, 0.5, 1});
  obs::Recorder rec;
  recorded_run(data, 3, SchedulerKind::kEquiArea, plan, rec);
  const HealthReport report = obs::monitor_trace(replay(rec.trace));
  ASSERT_FALSE(report.incidents.empty());
  obs::MetricsRegistry once, again;
  obs::record_health(report, once);
  obs::record_health(obs::monitor_trace(replay(rec.trace)), again);
  EXPECT_DOUBLE_EQ(once.counter("health.incidents").value(),
                   static_cast<double>(report.incidents.size()));
  EXPECT_EQ(once.to_json(), again.to_json());
}

TEST(MonitorTruth, FromTraceEqualsFaultRecords) {
  // The injector's fault instants are the ground truth: read back from the
  // in-memory trace they equal the run's FaultRecords field for field (an
  // abort, traced on the engine lane, reads as rank 0), and from the Chrome
  // replay an offline monitor reads, equal up to microsecond rounding.
  const Dataset data = small_dataset(601);
  for (const FaultKind kind : {FaultKind::kRankCrash, FaultKind::kStraggler,
                               FaultKind::kMessageDrop, FaultKind::kJobAbort}) {
    const FaultCase fault = one_fault(kind);
    obs::Recorder rec;
    const ClusterRunResult result = recorded_run(data, 4, SchedulerKind::kEquiArea, fault.plan,
                                                 rec, fault.checkpoint_every);
    const std::vector<TruthEvent> truth = obs::truth_from_trace(rec.trace);
    const std::vector<TruthEvent> offline = obs::truth_from_trace(replay(rec.trace));
    ASSERT_FALSE(truth.empty()) << fault_kind_name(kind);
    ASSERT_EQ(truth.size(), result.fault_events.size()) << fault_kind_name(kind);
    ASSERT_EQ(offline.size(), truth.size()) << fault_kind_name(kind);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      const FaultRecord& want = result.fault_events[i];
      EXPECT_EQ(truth[i].kind, fault_kind_name(want.kind));
      EXPECT_EQ(truth[i].rank, want.rank);
      EXPECT_EQ(truth[i].iteration, want.iteration);
      EXPECT_EQ(truth[i].sim_time, want.sim_time);
      EXPECT_EQ(offline[i].kind, truth[i].kind);
      EXPECT_EQ(offline[i].rank, truth[i].rank);
      EXPECT_EQ(offline[i].iteration, truth[i].iteration);
      EXPECT_NEAR(offline[i].sim_time, truth[i].sim_time, 1e-6);
    }
  }
}

TEST(MonitorTruth, RejectsHostileFaultInstantsNamingTheEvent) {
  const auto expect_rejected = [](std::uint32_t lane, const char* name, obs::SpanArgs args,
                                  const char* why) {
    Tracer trace;
    trace.instant(lane, name, "fault", 0.5, std::move(args));
    try {
      obs::truth_from_trace(trace);
      ADD_FAILURE() << "accepted fault instant " << name << " (" << why << ")";
    } catch (const MonitorError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + name + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  };
  expect_rejected(1, "fault.crash", {}, "no iteration");
  expect_rejected(1, "fault.crash", {{"cost_s", "0.1"}}, "no iteration");
  expect_rejected(1, "fault.crash", {{"iteration", "x"}}, "iteration 'x'");
  expect_rejected(1, "fault.crash", {{"iteration", "-1"}}, "iteration '-1'");
  expect_rejected(1, "fault.crash", {{"iteration", "4294967296"}}, "iteration '4294967296'");
  expect_rejected(1, "fault.crash", {{"iteration", "1.5"}}, "iteration '1.5'");
  expect_rejected(1, "fault.crash", {{"iteration", ""}}, "iteration ''");
  expect_rejected(1, "fault.meteor", {{"iteration", "1"}}, "unknown fault kind");
  expect_rejected(1, "crash", {{"iteration", "1"}}, "unknown fault kind");

  // Well-formed instants read back in (time, lane) order, an abort on the
  // engine lane as rank 0; instants of other categories are not truth.
  Tracer trace;
  trace.instant(kEngineLane, "fault.abort", "fault", 0.5, {{"iteration", "4294967295"}});
  trace.instant(2, "fault.drop", "fault", 0.5, {{"iteration", "0"}});
  trace.instant(3, "fault.straggler", "fault", 0.25, {{"iteration", "1"}});
  trace.instant(3, "health.straggler", "health", 0.25, {{"iteration", "x"}});
  const std::vector<TruthEvent> truth = obs::truth_from_trace(trace);
  ASSERT_EQ(truth.size(), 3u);
  EXPECT_EQ(truth[0].kind, "straggler");
  EXPECT_EQ(truth[0].rank, 3u);
  EXPECT_EQ(truth[1].kind, "drop");
  EXPECT_EQ(truth[2].kind, "abort");
  EXPECT_EQ(truth[2].rank, 0u);
  EXPECT_EQ(truth[2].iteration, 4294967295u);
}

TEST(MonitorCrosscheck, AgreesWithConsistentMetricsAndFlagsTampering) {
  const Dataset data = small_dataset(821);
  FaultPlan plan;
  plan.events.push_back({FaultKind::kRankCrash, 1, 1, 0.5, 1});
  obs::Recorder rec;
  recorded_run(data, 3, SchedulerKind::kEquiArea, plan, rec);
  const HealthReport report = obs::monitor_trace(replay(rec.trace));
  EXPECT_TRUE(obs::health_crosscheck(report, rec.metrics.snapshot()).empty());

  // A metrics snapshot claiming two lost ranks no longer matches the single
  // dead_rank lane.
  const JsonValue tampered = JsonValue::parse(
      "{\"schema\":\"multihit.metrics.v1\",\"counters\":["
      "{\"name\":\"cluster.ranks_lost\",\"value\":2}]}");
  const std::vector<std::string> mismatches = obs::health_crosscheck(report, tampered);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("dead_rank"), std::string::npos) << mismatches[0];

  // The health.incidents series, once recorded, must equal the replay's.
  obs::record_health(report, rec.metrics);
  EXPECT_TRUE(obs::health_crosscheck(report, rec.metrics.snapshot()).empty());

  // A group the replay never records is named.
  rec.metrics.counter("health.incidents", {{"lane", "2"}, {"rule", "dead_rank"}}).add();
  const std::vector<std::string> stray = obs::health_crosscheck(report, rec.metrics.snapshot());
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_NE(stray[0].find("\"lane\":\"2\""), std::string::npos) << stray[0];

  // So is a total above the replay's; the unlabeled total sorts first.
  rec.metrics.counter("health.incidents").add();
  const std::vector<std::string> extra = obs::health_crosscheck(report, rec.metrics.snapshot());
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_NE(extra[0].find("\"labels\":{},\"value\":" +
                          std::to_string(report.incidents.size() + 1)),
            std::string::npos)
      << extra[0];
}

TEST(MonitorAnnotate, AddsOneHealthInstantPerIncident) {
  const Dataset data = small_dataset(831);
  FaultPlan plan;
  plan.events.push_back({FaultKind::kRankCrash, 1, 1, 0.5, 1});
  obs::Recorder rec;
  recorded_run(data, 3, SchedulerKind::kEquiArea, plan, rec);
  Tracer trace = replay(rec.trace);
  const HealthReport report = obs::monitor_trace(trace);
  ASSERT_FALSE(report.incidents.empty());
  const std::size_t before = trace.events().size();
  obs::annotate_trace(trace, report);
  EXPECT_EQ(trace.events().size(), before + report.incidents.size());
  std::size_t health_instants = 0;
  for (const obs::TraceEvent& ev : trace.events()) {
    if (ev.category == "health") {
      EXPECT_TRUE(ev.instant);
      EXPECT_EQ(ev.name.rfind("health.", 0), 0u) << ev.name;
      ++health_instants;
    }
  }
  EXPECT_EQ(health_instants, report.incidents.size());
}

}  // namespace
}  // namespace multihit
