// Per-tenant serve SLO suite (src/obs/slo + the monitor's serve detectors).
//
// The load-bearing properties, in order of importance:
//   1. Replay identity: the slo.* metrics recorded in-process from a live
//      trace's job instants are byte-identical to those recomputed offline
//      from the run's saved Chrome trace — the contract `obstool slo` rests
//      on.
//   2. Detector ground truth: every planted --scenario pathology fires its
//      detector class (100% recall on the pinned seeds), and clean traces
//      across ten seeds fire nothing (zero false positives).
//   3. Grammar and evaluator semantics on hand-built inputs.

#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/monitor.hpp"
#include "obs/recorder.hpp"
#include "serve/service.hpp"

namespace multihit {
namespace {

using obs::HealthReport;
using obs::Incident;
using obs::JsonValue;
using obs::MonitorOptions;
using obs::SeriesLabels;
using obs::SloError;
using obs::SloInput;
using obs::SloJob;
using obs::SloKind;
using obs::SloObjective;
using obs::SloReport;
using serve::JobService;
using serve::RequestTrace;
using serve::Scenario;
using serve::ServeResult;
using serve::ServiceOptions;
using serve::TraceSpec;

/// The spec examples/serve.slo ships (and ci.sh pins): the clean seed-7
/// trace meets it, the planted scenarios violate it.
constexpr std::string_view kServeSlo =
    "slo * latency p99 below 40\n"
    "slo * admission above 0.95\n"
    "slo * budget 0.1 window 120 fast 10\n";

// ------------------------------------------------------------------- grammar

TEST(SloGrammar, ParsesEveryKindWithDefaultsAndComments) {
  const std::vector<SloObjective> spec = obs::parse_slo(
      "# fleet objectives\n"
      "slo gold latency p99 below 30  # tail bound\n"
      "\n"
      "slo * admission above 0.95\n"
      "slo gold budget 0.05 window 120 fast 10\n"
      "slo * budget 0.1 window 60\n");
  ASSERT_EQ(spec.size(), 4u);
  EXPECT_EQ(spec[0].tenant, "gold");
  EXPECT_EQ(spec[0].kind, SloKind::kLatency);
  EXPECT_DOUBLE_EQ(spec[0].percentile, 99.0);
  EXPECT_DOUBLE_EQ(spec[0].target, 30.0);
  EXPECT_EQ(spec[1].tenant, "*");
  EXPECT_EQ(spec[1].kind, SloKind::kAdmission);
  EXPECT_DOUBLE_EQ(spec[1].target, 0.95);
  EXPECT_EQ(spec[2].kind, SloKind::kBudget);
  EXPECT_DOUBLE_EQ(spec[2].window, 120.0);
  EXPECT_DOUBLE_EQ(spec[2].fast_window, 10.0);
  // Omitted fast window defaults to window/12 — the SRE 1h/5m ratio.
  EXPECT_DOUBLE_EQ(spec[3].fast_window, 5.0);
}

TEST(SloGrammar, RejectsMalformedLinesNamingTheLine) {
  try {
    obs::parse_slo("slo gold latency p99 below 30\nslo gold capacity above 1\n");
    FAIL() << "expected SloError";
  } catch (const SloError& e) {
    EXPECT_NE(std::string(e.what()).find("slo line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos) << e.what();
  }
  EXPECT_THROW(obs::parse_slo("nonsense\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold latency 99 below 30\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold latency p0 below 30\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold latency p99 above 30\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold admission above 1.5\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold budget 1.0 window 60\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold budget 0.1 window 60 fast 60\n"), SloError);
  EXPECT_THROW(obs::parse_slo("slo gold budget 0.1 window sixty\n"), SloError);
}

// ------------------------------------------------- label-suffixed series names

TEST(SloLabels, CanonicalNamesSortKeysAndRoundTrip) {
  // Keys are sorted on the way in, so any insertion order canonicalizes.
  const std::string name = obs::series_with_labels(
      "serve.wait_age", {{"tenant", "gold"}, {"cancer", "BRCA"}});
  EXPECT_EQ(name, "serve.wait_age{cancer=BRCA,tenant=gold}");
  const auto [base, labels] = obs::split_series_labels(name);
  EXPECT_EQ(base, "serve.wait_age");
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], (std::pair<std::string, std::string>{"cancer", "BRCA"}));
  EXPECT_EQ(labels[1], (std::pair<std::string, std::string>{"tenant", "gold"}));
  EXPECT_EQ(obs::series_tenant(name), "gold");
  EXPECT_EQ(obs::series_tenant("serve.queue_depth"), "");

  // Unlabeled names pass through whole.
  EXPECT_EQ(obs::series_with_labels("serve.queue_depth", {}), "serve.queue_depth");
  EXPECT_EQ(obs::split_series_labels("serve.queue_depth").first, "serve.queue_depth");
}

TEST(SloLabels, RejectsMalformedSelectors) {
  EXPECT_THROW(obs::split_series_labels(""), SloError);
  EXPECT_THROW(obs::split_series_labels("s{tenant=gold"), SloError);
  EXPECT_THROW(obs::split_series_labels("{tenant=gold}"), SloError);
  EXPECT_THROW(obs::split_series_labels("s{}"), SloError);
  EXPECT_THROW(obs::split_series_labels("s{tenant}"), SloError);
  EXPECT_THROW(obs::split_series_labels("s{tenant=}"), SloError);
  EXPECT_THROW(obs::split_series_labels("s{t=a=b}"), SloError);
  EXPECT_THROW(obs::split_series_labels("a=b"), SloError);
  EXPECT_THROW(obs::series_with_labels("", {}), SloError);
  EXPECT_THROW(obs::series_with_labels("s{x}", {}), SloError);
  EXPECT_THROW(obs::series_with_labels("s", {{"", "v"}}), SloError);
  EXPECT_THROW(obs::series_with_labels("s", {{"k", "a,b"}}), SloError);
}

// ---------------------------------------------------------------- evaluation

SloJob completed(std::string tenant, double arrival, double finish, bool cache_hit = false) {
  SloJob job;
  job.tenant = std::move(tenant);
  job.arrival = arrival;
  job.finish = finish;
  job.latency = finish - arrival;
  job.cache_hit = cache_hit;
  return job;
}

SloJob shed(std::string tenant, double arrival) {
  SloJob job;
  job.tenant = std::move(tenant);
  job.arrival = arrival;
  job.finish = -1.0;
  job.rejected = true;
  return job;
}

TEST(SloEvaluate, LatencyAdmissionAndBudgetVerdicts) {
  // Tenant "t": a rejection at t=0, then four completions of latency 4 each.
  SloInput input;
  input.jobs = {shed("t", 0.0), completed("t", 10.0, 14.0), completed("t", 20.0, 24.0),
                completed("t", 30.0, 34.0, /*cache_hit=*/true), completed("t", 40.0, 44.0)};

  const SloReport report = obs::evaluate_slo(
      input, obs::parse_slo("slo t latency p99 below 5\n"
                            "slo t latency p99 below 3\n"
                            "slo t admission above 0.9\n"
                            "slo t budget 0.1 window 1000 fast 2\n"));
  ASSERT_EQ(report.tenants.size(), 1u);
  const obs::SloTenantReport& tenant = report.tenants[0];
  EXPECT_EQ(tenant.completed, 4u);
  EXPECT_EQ(tenant.rejected, 1u);
  EXPECT_EQ(tenant.cache_hits, 1u);
  // Bad = the rejection; latency 4 meets the tightest (3? no — the minimum
  // target is 3, and 4 > 3) — so the four completions are bad too.
  EXPECT_EQ(tenant.bad, 5u);
  ASSERT_EQ(tenant.objectives.size(), 4u);

  // p99 of four samples all equal to 4 is exactly 4.
  EXPECT_DOUBLE_EQ(tenant.objectives[0].observed, 4.0);
  EXPECT_FALSE(tenant.objectives[0].violated);
  EXPECT_DOUBLE_EQ(tenant.objectives[0].attainment, 1.0);
  EXPECT_TRUE(tenant.objectives[1].violated);
  EXPECT_DOUBLE_EQ(tenant.objectives[1].attainment, 0.0);

  // 4 of 5 admitted-and-completed.
  EXPECT_DOUBLE_EQ(tenant.objectives[2].observed, 0.8);
  EXPECT_TRUE(tenant.objectives[2].violated);

  // Every event is bad under the min latency target 3: budget consumed
  // (5/5)/0.1 = 10x; the trailing windows see bad fraction 1 -> burn 10.
  EXPECT_DOUBLE_EQ(tenant.objectives[3].observed, 10.0);
  EXPECT_TRUE(tenant.objectives[3].violated);
  EXPECT_DOUBLE_EQ(tenant.objectives[3].max_slow_burn, 10.0);
  EXPECT_DOUBLE_EQ(tenant.objectives[3].max_fast_burn, 10.0);
  EXPECT_DOUBLE_EQ(report.worst_burn, 10.0);
  EXPECT_EQ(report.objectives, 4u);
  EXPECT_EQ(report.violated, 3u);
  EXPECT_DOUBLE_EQ(report.worst_p99_attainment, 0.0);
}

TEST(SloEvaluate, WildcardExpandsAndNamedTenantsMaterialize) {
  SloInput input;
  input.jobs = {completed("a", 0.0, 1.0), completed("b", 0.0, 2.0)};
  const SloReport report = obs::evaluate_slo(
      input, obs::parse_slo("slo * admission above 0.5\nslo ghost admission above 0.5\n"));
  // '*' expands over tenants seen; the named-but-unseen tenant still gets a
  // row (vacuously attaining) so a typo'd tenant name is visible, not silent.
  ASSERT_EQ(report.tenants.size(), 3u);
  EXPECT_EQ(report.tenants[0].tenant, "a");
  EXPECT_EQ(report.tenants[1].tenant, "b");
  EXPECT_EQ(report.tenants[2].tenant, "ghost");
  EXPECT_EQ(report.objectives, 4u);  // * on a, * on b, both rules on ghost
  EXPECT_EQ(report.violated, 0u);
  EXPECT_DOUBLE_EQ(report.tenants[2].objectives[0].observed, 1.0);
}

TEST(SloEvaluate, BurnRateIsWindowedNotCumulative) {
  // 10 good events spread over 1000s, then a burst of 4 bad in 2s: the
  // cumulative bad fraction is mild but the fast window catches the burst.
  SloInput input;
  for (int i = 0; i < 10; ++i) {
    input.jobs.push_back(completed("t", 100.0 * i, 100.0 * i + 1.0));
  }
  for (int i = 0; i < 4; ++i) input.jobs.push_back(shed("t", 1000.0 + 0.5 * i));
  const SloReport report =
      obs::evaluate_slo(input, obs::parse_slo("slo t budget 0.25 window 500 fast 10\n"));
  const obs::SloObjectiveResult& res = report.tenants[0].objectives[0];
  // Fast window (10s) holds only the 4 rejections: burn = 1.0/0.25 = 4.
  EXPECT_DOUBLE_EQ(res.max_fast_burn, 4.0);
  EXPECT_GT(res.max_fast_burn, res.max_slow_burn);
  EXPECT_DOUBLE_EQ(report.worst_burn, 4.0);
}

// ------------------------------------------------------------ metrics form

/// The labels record_slo puts on one evaluated (tenant, objective).
obs::Labels objective_labels(int index, const char* kind, const char* tenant) {
  return {{"objective", std::to_string(index)}, {"kind", kind}, {"tenant", tenant}};
}

TEST(SloMetrics, RecordSloWritesEveryObjectiveAndTheTotals) {
  SloInput input;
  input.jobs = {completed("a", 0.0, 1.0), shed("b", 2.0)};
  const std::vector<SloObjective> spec = obs::parse_slo(std::string(kServeSlo));
  const SloReport report = obs::evaluate_slo(input, spec);
  obs::MetricsRegistry metrics;
  obs::record_slo(report, metrics);

  // Two totals, then per (tenant, objective) observed + attainment + violated,
  // and the two burn gauges on the budget objective only: 2 + 6 * 3 + 2 * 2.
  // No per-tenant counts: the serve.* metrics carry those.
  constexpr std::size_t kSeries = 24;
  ASSERT_EQ(metrics.series_count(), kSeries);
  // Looking a series up registers it when absent, so the count staying at
  // kSeries below proves every series read here was recorded.
  EXPECT_EQ(metrics.counter("slo.objectives").value(), 6.0);
  EXPECT_EQ(metrics.counter("slo.violated").value(), 2.0);  // b: admission + budget
  for (const char* tenant : {"a", "b"}) {
    int index = 0;
    for (const char* kind : {"latency", "admission", "budget"}) {
      const obs::Labels labels = objective_labels(index++, kind, tenant);
      const bool violated = std::string_view(tenant) == "b" && std::string_view(kind) != "latency";
      EXPECT_EQ(metrics.counter("slo.violated", labels).value(), violated ? 1.0 : 0.0)
          << tenant << " " << kind;
      metrics.gauge("slo.observed", labels);
      metrics.gauge("slo.attainment", labels);
    }
    metrics.gauge("slo.fast_burn", objective_labels(2, "budget", tenant));
    metrics.gauge("slo.slow_burn", objective_labels(2, "budget", tenant));
  }
  EXPECT_EQ(metrics.series_count(), kSeries);
  EXPECT_EQ(metrics.gauge("slo.observed", objective_labels(0, "latency", "a")).value(), 1.0);
  EXPECT_EQ(metrics.gauge("slo.observed", objective_labels(1, "admission", "b")).value(), 0.0);
  EXPECT_EQ(metrics.gauge("slo.slow_burn", objective_labels(2, "budget", "b")).value(), 10.0);

  // Two records of one report give byte-equal snapshots.
  obs::MetricsRegistry once, again;
  obs::record_slo(report, once);
  obs::record_slo(obs::evaluate_slo(input, spec), again);
  EXPECT_EQ(once.to_json(), again.to_json());

  // A report with nothing violated still registers the total, at 0.
  obs::MetricsRegistry clean;
  obs::record_slo(obs::evaluate_slo(SloInput{{completed("a", 0.0, 1.0)}}, spec), clean);
  EXPECT_NE(clean.to_json().find(R"({"name":"slo.violated","labels":{},"value":0})"),
            std::string::npos);
}

TEST(SloMetrics, OverlappingObjectivesOfOneTenantGetDistinctSeries) {
  // Two p99 objectives and a p50 one apply to gold; the declaration index
  // keeps the two p99 series apart.
  SloInput input;
  input.jobs = {completed("gold", 0.0, 4.0), completed("gold", 10.0, 14.0)};
  const SloReport report = obs::evaluate_slo(
      input, obs::parse_slo("slo gold latency p50 below 5\n"
                            "slo gold latency p99 below 3\n"
                            "slo * latency p99 below 4\n"));
  obs::MetricsRegistry metrics;
  obs::record_slo(report, metrics);
  ASSERT_EQ(metrics.series_count(), 2u + 3u * 3u);
  for (int index = 0; index < 3; ++index) {
    EXPECT_EQ(metrics.gauge("slo.observed", objective_labels(index, "latency", "gold")).value(),
              4.0)
        << index;
  }
  EXPECT_EQ(metrics.counter("slo.violated", objective_labels(0, "latency", "gold")).value(), 0.0);
  EXPECT_EQ(metrics.counter("slo.violated", objective_labels(1, "latency", "gold")).value(), 1.0);
  EXPECT_EQ(metrics.counter("slo.violated", objective_labels(2, "latency", "gold")).value(), 0.0);
  EXPECT_EQ(metrics.series_count(), 2u + 3u * 3u);
}

/// A serve trace holding one `job` instant per entry of `jobs`.
obs::Tracer job_trace(const std::vector<obs::SpanArgs>& jobs) {
  obs::Tracer trace;
  for (std::uint32_t i = 0; i < jobs.size(); ++i) {
    trace.instant(serve::kJobLaneBase + i, "job", "serve", 1.0, jobs[i]);
  }
  return trace;
}

/// Reading `jobs` back must throw SloError naming `why` (and, when
/// `names_event`, the refused instant).
void expect_refused(const std::vector<obs::SpanArgs>& jobs, const std::string& why,
                    bool names_event = true) {
  try {
    obs::slo_input_from_trace(job_trace(jobs));
    ADD_FAILURE() << "accepted a trace whose job instants hold " << why;
  } catch (const SloError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(why), std::string::npos) << what;
    if (names_event) {
      EXPECT_NE(what.find("instant 'job' on lane "), std::string::npos) << what;
    }
  }
}

TEST(SloInputTrace, RejectsHostileJobInstantsNamingTheEvent) {
  const obs::SpanArgs good{{"id", "0"},
                           {"tenant", "t"},
                           {"cancer", "BRCA"},
                           {"hits", "4"},
                           {"outcome", "completed"},
                           {"cache_hit", "false"},
                           {"selections", "1,2,3,4"},
                           {"arrival", "0.25"},
                           {"finish", "1.5"}};
  // `good` with arg `key` set to `value`, or dropped when `value` is null.
  const auto with = [&good](const char* key, const char* value) {
    obs::SpanArgs args;
    for (const auto& [k, v] : good) {
      if (k == key && !value) continue;
      args.emplace_back(k, k == key ? std::string(value) : v);
    }
    return args;
  };

  const SloInput input = obs::slo_input_from_trace(job_trace({good}));
  ASSERT_EQ(input.jobs.size(), 1u);
  EXPECT_EQ(input.jobs[0].tenant, "t");
  EXPECT_EQ(input.jobs[0].arrival, 0.25);
  EXPECT_EQ(input.jobs[0].finish, 1.5);
  EXPECT_EQ(input.jobs[0].latency, 1.25);
  EXPECT_FALSE(input.jobs[0].rejected);

  expect_refused({with("arrival", nullptr)}, "no arrival arg");
  expect_refused({with("tenant", nullptr)}, "no tenant arg");
  expect_refused({with("id", nullptr)}, "no id arg");
  expect_refused({with("cache_hit", "yes")}, "cache_hit 'yes'");
  expect_refused({with("finish", "1e999")}, "finish '1e999'");
  expect_refused({with("finish", "nan")}, "finish 'nan'");
  expect_refused({with("arrival", "0.25s")}, "arrival '0.25s'");
  expect_refused({with("arrival", "")}, "arrival ''");
  for (const char* id : {"x", "-1", "12abc", "4294967296"}) {
    expect_refused({with("id", id)}, std::string("id '") + id + "'");
  }
  // A misspelt outcome is not a rejection: it would burn error budget.
  expect_refused({with("outcome", "completd")}, "outcome 'completd'");

  // The ids must be 0..n-1, each once.
  expect_refused({good, good}, "repeats job id 0");
  expect_refused({good, with("id", "2")}, "no job instant with id 1", false);
  // A trace without job instants is not a served run's; other instants,
  // even one named `job` in another category, are not job records.
  expect_refused({}, "no serve job instants", false);
  obs::Tracer foreign;
  foreign.instant(serve::kJobLaneBase, "job", "fault", 1.0, good);
  foreign.instant(serve::kJobLaneBase, "reject", "serve", 1.0, good);
  EXPECT_THROW(obs::slo_input_from_trace(foreign), SloError);

  // Rows come back in id order; a rejection carries no latency.
  const SloInput two = obs::slo_input_from_trace(job_trace(
      {with("id", "1"), with("outcome", "rejected_quota")}));
  ASSERT_EQ(two.jobs.size(), 2u);
  EXPECT_TRUE(two.jobs[0].rejected);
  EXPECT_EQ(two.jobs[0].latency, 0.0);
  EXPECT_FALSE(two.jobs[1].rejected);
}

// ---------------------------------------------------------- replay identity

TEST(SloReplay, OfflineTraceReproducesInProcessBytes) {
  TraceSpec spec;
  spec.mix = serve::ArrivalMix::kBursty;
  spec.jobs = 16;
  spec.seed = 7;
  spec.invalidate_rate = 0.2;
  const RequestTrace trace = serve::generate_trace(spec);
  ServiceOptions options;
  options.slo = obs::parse_slo(std::string(kServeSlo));
  obs::Recorder rec;
  options.recorder = &rec;
  JobService service(options);
  const ServeResult result = service.replay(trace);

  // In-process: straight off the live trace, one row per job record.
  const SloInput live_input = obs::slo_input_from_trace(rec.trace);
  ASSERT_EQ(live_input.jobs.size(), result.jobs.size());
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const serve::JobRecord& job = result.jobs[i];
    const SloJob& row = live_input.jobs[i];
    EXPECT_EQ(row.tenant, job.tenant) << i;
    EXPECT_EQ(row.arrival, job.arrival) << i;
    EXPECT_EQ(row.finish, job.finish) << i;
    EXPECT_EQ(row.rejected, job.outcome != serve::JobOutcome::kCompleted) << i;
    EXPECT_EQ(row.cache_hit, job.cache_hit) << i;
    EXPECT_EQ(row.latency, row.rejected ? 0.0 : job.latency()) << i;
  }
  const SloReport live = obs::evaluate_slo(live_input, options.slo);

  // Offline: dump the trace to text, read it back through the Chrome reader,
  // rebuild the input — exactly what `obstool slo` does to a saved
  // --trace-out file.
  const obs::Tracer replayed =
      obs::tracer_from_chrome(JsonValue::parse(rec.trace.to_chrome_json()));
  const SloReport offline = obs::evaluate_slo(obs::slo_input_from_trace(replayed), options.slo);

  obs::MetricsRegistry live_metrics, offline_metrics;
  obs::record_slo(live, live_metrics);
  obs::record_slo(offline, offline_metrics);
  EXPECT_EQ(live_metrics.to_json(), offline_metrics.to_json());
  EXPECT_GT(live.objectives, 0u);

  // The `obstool slo TRACE --spec FILE METRICS` crosscheck: the live snapshot,
  // read back from text, agrees with the replay; one more violation in it is
  // named by the first entry that differs.
  EXPECT_EQ(obs::metrics_family_mismatch(JsonValue::parse(live_metrics.to_json()),
                                         offline_metrics.snapshot(), "slo"),
            "");
  live_metrics.counter("slo.violated").add();
  const std::string mismatch = obs::metrics_family_mismatch(
      JsonValue::parse(live_metrics.to_json()), offline_metrics.snapshot(), "slo");
  EXPECT_NE(mismatch.find("\"slo.violated\""), std::string::npos) << mismatch;
}

// ------------------------------------------------- planted-pathology ground truth

/// Runs one (scenario, seed) through the service with a recorder attached and
/// monitors the chrome-round-tripped trace — the exact offline `obstool
/// monitor` view — at the serve cadence ci.sh uses.
HealthReport monitored_scenario(Scenario scenario, std::uint64_t seed) {
  TraceSpec spec;
  spec.jobs = 24;
  spec.seed = seed;
  ServiceOptions options;
  serve::apply_scenario(spec, options, scenario);
  obs::Recorder rec;
  options.recorder = &rec;
  options.slo = obs::parse_slo(std::string(kServeSlo));
  JobService service(options);
  service.replay(serve::generate_trace(spec));

  MonitorOptions mon;
  mon.sample_every = 0.5;
  mon.window_samples = 256;
  mon.slo = options.slo;
  const obs::Tracer replayed =
      obs::tracer_from_chrome(JsonValue::parse(rec.trace.to_chrome_json()));
  return obs::monitor_trace(replayed, mon);
}

bool fired(const HealthReport& report, std::string_view rule) {
  return std::any_of(report.incidents.begin(), report.incidents.end(),
                     [&](const Incident& inc) { return inc.rule == rule; });
}

TEST(SloDetectors, PlantedPathologiesFireTheirClassAtFullRecall) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{13}}) {
    const HealthReport overload = monitored_scenario(Scenario::kOverload, seed);
    EXPECT_TRUE(fired(overload, "queue_saturation")) << "overload seed " << seed;
    EXPECT_TRUE(fired(overload, "slo_slow_burn")) << "overload seed " << seed;

    const HealthReport starvation = monitored_scenario(Scenario::kStarvation, seed);
    EXPECT_TRUE(fired(starvation, "tenant_starvation")) << "starvation seed " << seed;
    for (const Incident& inc : starvation.incidents) {
      if (inc.rule == "tenant_starvation") {
        EXPECT_EQ(inc.tenant, "bronze") << "the low-priority class starves";
        EXPECT_GT(inc.lane, obs::kEngineLane) << "incident lands on a serve lane";
      }
    }

    const HealthReport burn = monitored_scenario(Scenario::kBurn, seed);
    EXPECT_TRUE(fired(burn, "slo_slow_burn")) << "burn seed " << seed;

    const HealthReport thrash = monitored_scenario(Scenario::kThrash, seed);
    EXPECT_TRUE(fired(thrash, "cache_thrash")) << "thrash seed " << seed;
  }
}

TEST(SloDetectors, CleanTracesAcrossTenSeedsStaySilent) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TraceSpec spec;
    spec.mix = serve::ArrivalMix::kBursty;
    spec.jobs = 24;
    spec.seed = seed;
    spec.invalidate_rate = 0.2;
    ServiceOptions options;
    obs::Recorder rec;
    options.recorder = &rec;
    options.slo = obs::parse_slo(std::string(kServeSlo));
    JobService service(options);
    service.replay(serve::generate_trace(spec));

    MonitorOptions mon;
    mon.sample_every = 0.5;
    mon.window_samples = 256;
    mon.slo = options.slo;
    const obs::Tracer replayed =
        obs::tracer_from_chrome(JsonValue::parse(rec.trace.to_chrome_json()));
    const HealthReport report = obs::monitor_trace(replayed, mon);
    EXPECT_TRUE(report.incidents.empty())
        << "seed " << seed << " fired " << report.incidents.size() << " incident(s), first: "
        << (report.incidents.empty() ? "" : report.incidents[0].rule);
  }
}

TEST(SloDetectors, ScenarioVerdictsMatchTheReportContract) {
  // The end-state SLO report flags overload / starvation / burn; thrash burns
  // fleet efficiency without moving user-visible latency or admission — the
  // cache_thrash detector exists precisely because the report cannot see it.
  const std::vector<SloObjective> spec = obs::parse_slo(std::string(kServeSlo));
  const auto violated = [&](Scenario scenario) {
    TraceSpec trace_spec;
    trace_spec.jobs = 24;
    trace_spec.seed = 7;
    ServiceOptions options;
    serve::apply_scenario(trace_spec, options, scenario);
    options.slo = spec;
    obs::Recorder rec;
    options.recorder = &rec;
    JobService service(options);
    service.replay(serve::generate_trace(trace_spec));
    return obs::evaluate_slo(obs::slo_input_from_trace(rec.trace), spec).violated;
  };
  EXPECT_GT(violated(Scenario::kOverload), 0u);
  EXPECT_GT(violated(Scenario::kStarvation), 0u);
  EXPECT_GT(violated(Scenario::kBurn), 0u);
  EXPECT_EQ(violated(Scenario::kThrash), 0u);
}

}  // namespace
}  // namespace multihit
