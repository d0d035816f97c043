// Health-monitor tests: sampler/rule-engine/detector units on hand-built
// traces, a ground-truth sweep (4 injected fault classes x {EA, ED}
// schedulers) asserting full recall with zero false positives and bounded
// detection latency, fault-free runs that must stay silent, the
// bit-identical-off differential, and incident well-formedness properties
// over random fault plans.

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
#include "hostile_json.hpp"

namespace multihit {
namespace {

using obs::AlertRule;
using obs::HealthReport;
using obs::HealthScore;
using obs::Incident;
using obs::JsonValue;
using obs::kEngineLane;
using obs::MonitorError;
using obs::MonitorOptions;
using obs::RuleCmp;
using obs::RuleKind;
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

// ---------------------------------------------------------------- rule parse

TEST(MonitorRules, ParsesEveryKindAndIgnoresComments) {
  const std::vector<AlertRule> rules = obs::parse_rules(
      "# alerting for the scale-out run\n"
      "rule deep threshold queue_depth above 10 hold 2\n"
      "\n"
      "rule surge rate comm_retransmits above 5 window 0.5  # bursts\n"
      "rule stale absence heartbeat window 0.25\n"
      "rule skew imbalance gpu_dram_throughput below 0.5\n");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].name, "deep");
  EXPECT_EQ(rules[0].kind, RuleKind::kThreshold);
  EXPECT_EQ(rules[0].series, "queue_depth");
  EXPECT_EQ(rules[0].cmp, RuleCmp::kAbove);
  EXPECT_DOUBLE_EQ(rules[0].value, 10.0);
  EXPECT_EQ(rules[0].hold, 2u);
  EXPECT_EQ(rules[1].kind, RuleKind::kRate);
  EXPECT_DOUBLE_EQ(rules[1].window, 0.5);
  EXPECT_EQ(rules[2].kind, RuleKind::kAbsence);
  EXPECT_DOUBLE_EQ(rules[2].window, 0.25);
  EXPECT_EQ(rules[3].kind, RuleKind::kImbalance);
  EXPECT_EQ(rules[3].cmp, RuleCmp::kBelow);
}

TEST(MonitorRules, RejectsMalformedLinesNamingTheLine) {
  try {
    obs::parse_rules("rule ok threshold s above 1\nrule bad bogus s above 1\n");
    FAIL() << "expected MonitorError";
  } catch (const MonitorError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos) << e.what();
  }
  EXPECT_THROW(obs::parse_rules("rule x threshold s sideways 1\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x threshold s above eleven\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x rate s above 1\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x absence s window -1\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x threshold s above 1 hold 0\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x threshold s above 1 hold 1e30\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x threshold s above 1 hold 4294967296\n"), MonitorError);
  EXPECT_EQ(obs::parse_rules("rule x threshold s above 1 hold 4294967295\n")[0].hold,
            4294967295u);
  EXPECT_THROW(obs::parse_rules("nonsense\n"), MonitorError);
}

TEST(MonitorRules, SeriesSelectorsParseAndMalformedOnesNameTheLine) {
  const std::vector<AlertRule> rules = obs::parse_rules(
      "rule hot threshold serve.wait_age{tenant=bronze} above 30 hold 2\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].series, "serve.wait_age");
  ASSERT_EQ(rules[0].labels.size(), 1u);
  EXPECT_EQ(rules[0].labels[0],
            (std::pair<std::string, std::string>{"tenant", "bronze"}));

  try {
    obs::parse_rules(
        "rule ok threshold serve.queue_depth above 10\n"
        "rule bad threshold serve.wait_age{tenant= above 30\n");
    FAIL() << "expected MonitorError";
  } catch (const MonitorError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("serve.wait_age{tenant="), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(obs::parse_rules("rule x threshold s{} above 1\n"), MonitorError);
  EXPECT_THROW(obs::parse_rules("rule x threshold s{a=b,} above 1\n"), MonitorError);
}

TEST(MonitorRules, SelectorRulesMatchLabeledSerieAndCarryTheTenant) {
  // Two tenants on the scheduler lane: bronze's wait age climbs, gold's
  // stays flat. A selector rule must fire on bronze only; an unselected rule
  // over the base name matches both series but only bronze breaches.
  Tracer trace;
  const std::uint32_t lane = obs::kSchedulerLane;
  for (int i = 0; i <= 20; ++i) {
    const double t = 0.1 * static_cast<double>(i);
    trace.counter(lane, "serve.wait_age{tenant=bronze}", t, i >= 10 ? 50.0 : 1.0);
    trace.counter(lane, "serve.wait_age{tenant=gold}", t, 1.0);
  }
  MonitorOptions options;
  options.sample_every = 0.1;
  options.builtin_detectors = false;
  options.rules = obs::parse_rules(
      "rule bronze_age threshold serve.wait_age{tenant=bronze} above 30 hold 2\n"
      "rule any_age threshold serve.wait_age above 30 hold 2\n"
      "rule gold_age threshold serve.wait_age{tenant=gold} above 30 hold 2\n");
  const HealthReport report = obs::monitor_trace(trace, options);
  int bronze_named = 0;
  int any_named = 0;
  for (const Incident& inc : report.incidents) {
    EXPECT_EQ(inc.tenant, "bronze") << inc.rule;
    if (inc.rule == "bronze_age") ++bronze_named;
    if (inc.rule == "any_age") ++any_named;
    EXPECT_NE(inc.rule, "gold_age") << "gold never breaches";
  }
  EXPECT_EQ(bronze_named, 1);
  EXPECT_EQ(any_named, 1);
}

TEST(MonitorRules, ThresholdRuleBitesOnServeQueueDepth) {
  Tracer trace;
  for (int i = 0; i <= 10; ++i) {
    trace.counter(obs::kSchedulerLane, "serve.queue_depth", 0.1 * static_cast<double>(i),
                  i < 5 ? 2.0 : 12.0);
  }
  MonitorOptions options;
  options.sample_every = 0.1;
  options.builtin_detectors = false;
  options.rules = obs::parse_rules("rule deep threshold serve.queue_depth above 10 hold 2\n");
  const HealthReport report = obs::monitor_trace(trace, options);
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].rule, "deep");
  EXPECT_EQ(report.incidents[0].tenant, "");
  EXPECT_DOUBLE_EQ(report.incidents[0].value, 12.0);
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
  EXPECT_THROW(
      obs::monitor_trace(empty, with([](MonitorOptions& o) { o.straggler_ratio = 1.0; })),
      MonitorError);
  EXPECT_THROW(
      obs::monitor_trace(empty, with([](MonitorOptions& o) { o.collapse_fraction = 1.5; })),
      MonitorError);
  EXPECT_THROW(obs::monitor_trace(empty, with([](MonitorOptions& o) {
                 o.rules.push_back({"r", RuleKind::kRate, "s", {}, RuleCmp::kAbove, 1.0, 0.0, 1});
               })),
               MonitorError);
}

// ------------------------------------------------------------------- sampler

TEST(MonitorSampler, SnapshotsExactValuesAtBoundaries) {
  Tracer trace;
  trace.counter(0, "queue_depth", 0.25, 4.0);
  trace.counter(0, "queue_depth", 0.75, 9.0);
  trace.counter(0, "queue_depth", 1.25, 2.0);
  MonitorOptions options;
  options.sample_every = 0.5;
  options.builtin_detectors = false;
  const HealthReport report = obs::monitor_trace(trace, options);
  ASSERT_EQ(report.series.size(), 1u);
  const obs::SeriesStat& s = report.series[0];
  EXPECT_EQ(s.series, "queue_depth");
  EXPECT_EQ(s.lane, 0u);
  EXPECT_EQ(s.samples, 3u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.last, 2.0);
  EXPECT_DOUBLE_EQ(s.last_at, 1.25);
  // Boundaries at 0.5, 1.0, 1.5: the ring holds the value as of each.
  ASSERT_EQ(s.window.size(), 3u);
  EXPECT_DOUBLE_EQ(s.window[0].first, 0.5);
  EXPECT_DOUBLE_EQ(s.window[0].second, 4.0);
  EXPECT_DOUBLE_EQ(s.window[1].second, 9.0);
  EXPECT_DOUBLE_EQ(s.window[2].second, 2.0);
}

TEST(MonitorSampler, RingWindowDropsOldestBeyondDepth) {
  Tracer trace;
  for (int i = 1; i <= 8; ++i) {
    trace.counter(0, "ticks", 0.25 * i, static_cast<double>(i));
  }
  MonitorOptions options;
  options.sample_every = 0.25;
  options.window_samples = 3;
  options.builtin_detectors = false;
  const HealthReport report = obs::monitor_trace(trace, options);
  ASSERT_EQ(report.series.size(), 1u);
  const obs::SeriesStat& s = report.series[0];
  ASSERT_EQ(s.window.size(), 3u);
  EXPECT_DOUBLE_EQ(s.window[0].first, 1.5);
  EXPECT_DOUBLE_EQ(s.window[2].first, 2.0);
  EXPECT_DOUBLE_EQ(s.window[2].second, 8.0);
}

// ---------------------------------------------------------------- user rules

MonitorOptions rules_only(std::string_view text, double sample_every = 0.25) {
  MonitorOptions options;
  options.sample_every = sample_every;
  options.builtin_detectors = false;
  options.rules = obs::parse_rules(text);
  return options;
}

TEST(MonitorUserRules, ThresholdHoldsBeforeFiringAndClears) {
  Tracer trace;
  trace.complete(0, "phase_a", "compute", 0.0, 2.0);
  trace.counter(0, "queue_depth", 0.125, 20.0);  // above from the start
  trace.counter(0, "queue_depth", 1.125, 5.0);   // back below
  trace.counter(0, "queue_depth", 1.875, 5.0);
  const HealthReport report =
      obs::monitor_trace(trace, rules_only("rule deep threshold queue_depth above 10 hold 2\n"));
  ASSERT_EQ(report.incidents.size(), 1u);
  const Incident& inc = report.incidents[0];
  EXPECT_EQ(inc.rule, "deep");
  EXPECT_EQ(inc.kind, "threshold");
  EXPECT_EQ(inc.lane, 0u);
  // Breached at boundaries 0.25 and 0.5 -> hold 2 satisfied at 0.5; value
  // drops below by the 1.25 boundary.
  EXPECT_DOUBLE_EQ(inc.fired, 0.5);
  EXPECT_DOUBLE_EQ(inc.cleared, 1.25);
  EXPECT_FALSE(inc.open);
  EXPECT_DOUBLE_EQ(inc.value, 20.0);
  EXPECT_EQ(inc.span, "phase_a");
}

TEST(MonitorUserRules, RateDetectsGrowthInsideTrailingWindow) {
  Tracer trace;
  trace.counter(0, "retries", 0.125, 1.0);
  trace.counter(0, "retries", 1.125, 9.0);  // +8 in one sampling interval
  trace.counter(0, "retries", 2.5, 9.0);
  const HealthReport report =
      obs::monitor_trace(trace, rules_only("rule surge rate retries above 5 window 0.5\n"));
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].kind, "rate");
  EXPECT_DOUBLE_EQ(report.incidents[0].fired, 1.25);
  EXPECT_DOUBLE_EQ(report.incidents[0].value, 8.0);
  EXPECT_FALSE(report.incidents[0].open);
}

TEST(MonitorUserRules, AbsenceIsFleetRelative) {
  Tracer trace;
  for (int i = 1; i <= 8; ++i) {
    trace.counter(0, "beat", 0.25 * i, static_cast<double>(i));
    if (i <= 4) trace.counter(1, "beat", 0.25 * i, static_cast<double>(i));
  }
  const HealthReport report =
      obs::monitor_trace(trace, rules_only("rule stale absence beat window 0.5\n"));
  ASSERT_EQ(report.incidents.size(), 1u);
  const Incident& inc = report.incidents[0];
  EXPECT_EQ(inc.lane, 1u);
  // Lane 1's newest sample is 1.0; the fleet reaches 1.75 at the 1.75
  // boundary, putting lane 1's gap (0.75) past the 0.5 window.
  EXPECT_DOUBLE_EQ(inc.fired, 1.75);
  EXPECT_TRUE(inc.open);
}

TEST(MonitorUserRules, ImbalanceComparesAgainstOtherLanes) {
  Tracer trace;
  trace.counter(0, "load", 0.125, 10.0);
  trace.counter(1, "load", 0.125, 2.0);
  trace.counter(2, "load", 0.125, 2.0);
  const HealthReport report =
      obs::monitor_trace(trace, rules_only("rule skew imbalance load above 2\n"));
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].lane, 0u);
  EXPECT_DOUBLE_EQ(report.incidents[0].value, 5.0);  // 10 / mean(2, 2)
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
  options.heartbeat_timeout = 0.25;
  const HealthReport report = obs::monitor_trace(trace, options);
  ASSERT_EQ(report.incidents.size(), 1u);
  const Incident& inc = report.incidents[0];
  EXPECT_EQ(inc.rule, "dead_rank");
  EXPECT_EQ(inc.lane, 1u);
  EXPECT_DOUBLE_EQ(inc.fired, 1.5);  // fleet at 1.5, lane 1 at 1.0: gap 0.5
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

class MonitorGroundTruth : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MonitorGroundTruth, DetectsInjectedFaultsPerfectly) {
  const SweepCase& param = GetParam();
  FaultPlan plan;
  std::uint32_t checkpoint_every = 0;
  switch (param.kind) {
    case FaultKind::kRankCrash:
      plan.events.push_back({FaultKind::kRankCrash, 1, 1, 0.5, 1});
      break;
    case FaultKind::kStraggler:
      // Iteration >= 1 (iteration 0 is the detector's baseline warm-up) and
      // factor >= 2.5 so the deviation clears the 1.6x fire ratio.
      plan.events.push_back({FaultKind::kStraggler, 2, 1, 3.0, 2});
      break;
    case FaultKind::kMessageDrop:
      plan.events.push_back({FaultKind::kMessageDrop, 2, 1, 0.0, 2});
      break;
    case FaultKind::kJobAbort:
      plan.events.push_back({FaultKind::kJobAbort, 0, 2, 0.0, 1});
      checkpoint_every = 1;
      break;
  }
  const Dataset data = small_dataset(601);
  obs::Recorder rec;
  const ClusterRunResult result =
      recorded_run(data, 4, param.scheduler, plan, rec, checkpoint_every);
  ASSERT_FALSE(result.fault_events.empty());

  const HealthReport report = obs::monitor_trace(replay(rec.trace));
  const std::vector<TruthEvent> truth = truth_events(result.fault_events);
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
  const HealthReport report = obs::monitor_trace(replay(rec.trace));
  const std::string health = obs::health_report(report).dump();

  // Selections are bit-identical with monitoring off.
  EXPECT_EQ(on.greedy.combinations(), off.greedy.combinations());
  EXPECT_DOUBLE_EQ(on.total_time, off.total_time);
  // Monitoring is a pure read: the primary artifacts are byte-identical
  // before and after, and a second replay renders a byte-identical document.
  EXPECT_EQ(rec.trace.to_chrome_json(), trace_before);
  EXPECT_EQ(rec.metrics.to_json(), metrics_before);
  EXPECT_EQ(obs::health_report(obs::monitor_trace(replay(rec.trace))).dump(), health);
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
      if (it != last_cleared.end()) EXPECT_GT(inc.fired, it->second) << inc.rule;
      last_cleared[key] = inc.cleared;
      if (inc.open) EXPECT_DOUBLE_EQ(inc.cleared, dt * static_cast<double>(report.boundaries));
    }
  }
}

// ------------------------------------------------------------ schema + docs

TEST(MonitorSchema, HealthDocumentIsStableAndTagged) {
  const Dataset data = small_dataset(811);
  obs::Recorder rec;
  recorded_run(data, 3, SchedulerKind::kEquiArea, {}, rec);
  const HealthReport report = obs::monitor_trace(replay(rec.trace));
  const JsonValue doc = obs::health_report(report);
  EXPECT_EQ(doc.find("schema")->as_string(), obs::kHealthSchema);
  // dump -> parse -> dump is a fixed point, and re-rendering is idempotent.
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());
  EXPECT_EQ(obs::health_report(report).dump(), doc.dump());
}

TEST(MonitorSchema, TruthRoundTripsAndNamesBothSchemasOnMismatch) {
  const std::vector<TruthEvent> events{{"crash", 1, 2, 0.125}, {"abort", 0, 3, 0.5}};
  const JsonValue doc = obs::truth_json(events);
  const std::vector<TruthEvent> back = obs::truth_from_json(JsonValue::parse(doc.dump()));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].kind, "crash");
  EXPECT_EQ(back[0].rank, 1u);
  EXPECT_EQ(back[1].iteration, 3u);
  EXPECT_DOUBLE_EQ(back[1].sim_time, 0.5);

  JsonValue wrong = JsonValue::object();
  wrong.set("schema", JsonValue("multihit.metrics.v1"));
  try {
    obs::truth_from_json(wrong);
    FAIL() << "expected MonitorError";
  } catch (const MonitorError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("multihit.truth.v1"), std::string::npos) << what;
    EXPECT_NE(what.find("multihit.metrics.v1"), std::string::npos) << what;
  }
  try {
    obs::truth_from_json(JsonValue::object());
    FAIL() << "expected MonitorError";
  } catch (const MonitorError& e) {
    EXPECT_NE(std::string(e.what()).find("(missing)"), std::string::npos) << e.what();
  }
}

TEST(MonitorSchema, TruthRejectsHostileEvents) {
  const std::string good = obs::truth_json({{"crash", 1, 2, 0.125}}).dump();
  const auto reject = [](const std::string& text, const char* path) {
    hostile::expect_rejected<MonitorError>(obs::truth_from_json, text, path);
  };
  reject(hostile::drop(good, "kind"), "events[0].kind");
  reject(hostile::plant(good, "kind", "5"), "events[0].kind");
  reject(hostile::plant(good, "rank", "-1"), "events[0].rank");
  reject(hostile::plant(good, "rank", "4294967297"), "events[0].rank");
  reject(hostile::plant(good, "iteration", "1.5"), "events[0].iteration");
  reject(hostile::plant(good, "iteration", "1e30"), "events[0].iteration");
  reject(hostile::plant(good, "sim_time", "\"soon\""), "events[0].sim_time");
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
