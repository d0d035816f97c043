#include "obs/analyze.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/distributed.hpp"
#include "data/generator.hpp"
#include "hostile_json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/recorder.hpp"

namespace multihit {
namespace {

using obs::JsonValue;

// All hand-built timestamps below are dyadic (multiples of 0.25), so the
// seconds<->microseconds conversions in the Chrome export round-trip without
// floating-point drift and byte-identity assertions are exact.

/// Two ranks, one binding reduce hop, a broadcast tail — the minimal trace
/// with a cross-lane critical path.
obs::Tracer two_rank_tracer() {
  obs::Tracer tracer;
  tracer.set_lane_name(0, "rank 0");
  tracer.set_lane_name(1, "rank 1");
  tracer.complete(0, "compute", "compute", 0.0, 1.0);
  tracer.complete(0, "mpi_reduce", "comm", 1.0, 1.25);
  tracer.complete(1, "compute", "compute", 0.0, 2.0);
  tracer.complete(1, "mpi_reduce", "comm", 2.0, 2.25);
  tracer.complete(0, "mpi_broadcast", "comm", 2.5, 2.75);
  tracer.instant(1, "fault.crash", "fault", 0.5);
  // Counter tracks ride the same export/import path as spans.
  tracer.counter(0, "occupancy", 0.0, 0.75);
  tracer.counter(0, "occupancy", 1.0, 0.0);
  tracer.counter(1, "dram_throughput", 0.0, 512.0);
  // Rank 0 finished reducing at 1.25 and then waited for the straggler's
  // candidate: this edge is binding and carries the critical path to lane 1.
  tracer.flow(1, 2.25, 0, 2.5, "reduce", "comm", /*binding=*/true, {{"bytes", "20"}});
  // Rank 1 was behind when this message left rank 0 — non-binding, ignored
  // by the walk.
  tracer.flow(0, 1.25, 1, 1.5, "p2p", "comm", /*binding=*/false);
  return tracer;
}

/// The analysis as record_analysis writes it: a metrics snapshot.
JsonValue analysis_snapshot(const obs::TraceAnalysis& analysis) {
  obs::MetricsRegistry metrics;
  obs::record_analysis(analysis, metrics);
  return metrics.snapshot();
}

/// The value of the gauge `name` whose labels dump as `labels`.
double gauge_value(const JsonValue& snapshot, std::string_view name, std::string_view labels) {
  for (const JsonValue& gauge : snapshot.find("gauges")->as_array()) {
    if (gauge.find("name")->as_string() == name && gauge.find("labels")->dump() == labels) {
      return gauge.find("value")->as_number();
    }
  }
  ADD_FAILURE() << "no gauge " << name << labels;
  return std::nan("");
}

TEST(AnalyzeCriticalPath, BackwardWalkCrossesBindingEdgesOnly) {
  const obs::TraceAnalysis a = obs::analyze_trace(two_rank_tracer());

  EXPECT_DOUBLE_EQ(a.makespan, 2.75);
  EXPECT_EQ(a.rank_lanes, 2u);
  EXPECT_DOUBLE_EQ(a.critical_total, a.makespan);  // tiles [0, makespan]

  // Chronological: straggler's compute + reduce, the wire hop, the broadcast.
  ASSERT_EQ(a.critical_path.size(), 4u);
  EXPECT_EQ(a.critical_path[0].lane, 1u);
  EXPECT_EQ(a.critical_path[0].phase, "compute");
  EXPECT_DOUBLE_EQ(a.critical_path[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(a.critical_path[0].end, 2.0);
  EXPECT_EQ(a.critical_path[1].phase, "mpi_reduce");
  EXPECT_DOUBLE_EQ(a.critical_path[1].end, 2.25);
  EXPECT_EQ(a.critical_path[2].phase, "transfer");
  EXPECT_DOUBLE_EQ(a.critical_path[2].begin, 2.25);
  EXPECT_DOUBLE_EQ(a.critical_path[2].end, 2.5);
  EXPECT_EQ(a.critical_path[3].lane, 0u);
  EXPECT_EQ(a.critical_path[3].phase, "mpi_broadcast");
  EXPECT_DOUBLE_EQ(a.critical_path[3].end, 2.75);

  double by_phase_total = 0.0;
  for (const auto& [phase, seconds] : a.critical_by_phase) by_phase_total += seconds;
  EXPECT_DOUBLE_EQ(by_phase_total, a.critical_total);
}

TEST(AnalyzeCriticalPath, PhaseStatsAttributeStragglerAndImbalance) {
  const obs::TraceAnalysis a = obs::analyze_trace(two_rank_tracer());

  const obs::PhaseStat* compute = nullptr;
  const obs::PhaseStat* broadcast = nullptr;
  for (const obs::PhaseStat& stat : a.phases) {
    if (stat.phase == "compute") compute = &stat;
    if (stat.phase == "mpi_broadcast") broadcast = &stat;
  }
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->category, "compute");
  EXPECT_DOUBLE_EQ(compute->total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(compute->mean_seconds, 1.5);
  EXPECT_DOUBLE_EQ(compute->max_seconds, 2.0);
  EXPECT_EQ(compute->straggler_lane, 1u);
  EXPECT_DOUBLE_EQ(compute->max_over_mean, 2.0 / 1.5);
  EXPECT_DOUBLE_EQ(compute->stddev_seconds, std::sqrt(0.5));
  EXPECT_EQ(compute->lanes, 2u);

  // Only rank 0 broadcast, but the mean is over *all* rank lanes: a lane
  // that never entered the phase is imbalance, not a smaller denominator.
  ASSERT_NE(broadcast, nullptr);
  EXPECT_EQ(broadcast->lanes, 1u);
  EXPECT_DOUBLE_EQ(broadcast->mean_seconds, 0.125);
  EXPECT_DOUBLE_EQ(broadcast->max_over_mean, 2.0);

  EXPECT_DOUBLE_EQ(a.busy_seconds, 3.75);
  EXPECT_DOUBLE_EQ(a.comm_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.comm_fraction, 0.2);
}

TEST(AnalyzeCriticalPath, GapsBecomeWaitSegments) {
  obs::Tracer tracer;
  tracer.complete(0, "compute", "compute", 0.0, 1.0);
  tracer.complete(0, "compute", "compute", 2.0, 3.0);

  const obs::TraceAnalysis a = obs::analyze_trace(tracer);
  EXPECT_DOUBLE_EQ(a.makespan, 3.0);
  EXPECT_DOUBLE_EQ(a.critical_total, 3.0);
  ASSERT_EQ(a.critical_path.size(), 3u);
  EXPECT_EQ(a.critical_path[0].phase, "compute");
  EXPECT_EQ(a.critical_path[1].phase, "wait");
  EXPECT_DOUBLE_EQ(a.critical_path[1].begin, 1.0);
  EXPECT_DOUBLE_EQ(a.critical_path[1].end, 2.0);
  EXPECT_EQ(a.critical_path[2].phase, "compute");
}

TEST(AnalyzeCriticalPath, RoundingGapsJoinTheAdjacentSpan) {
  // One instant reached through two conversions can land one ULP apart (the
  // equi-area brca_scaleout trace has such a gap at t ~ 2.2e-4 s). Rounding
  // is not waiting: the gap joins the span beside it, before a span and
  // after a lane's last one alike, and the tiles still sum to the makespan.
  const double t = 2.187434820396085e-4;
  const double departure = std::nextafter(3e-4, 1.0);
  obs::Tracer tracer;
  tracer.complete(1, "compute", "compute", 0.0, t);
  tracer.complete(1, "mpi_reduce", "comm", std::nextafter(t, 1.0), 3e-4);
  tracer.flow(1, departure, 0, 4e-4, "reduce", "comm", /*binding=*/true);
  tracer.complete(0, "mpi_broadcast", "comm", 4e-4, 5e-4);

  const obs::TraceAnalysis a = obs::analyze_trace(tracer);
  ASSERT_EQ(a.critical_path.size(), 4u);
  EXPECT_EQ(a.critical_path[0].phase, "compute");
  EXPECT_EQ(a.critical_path[0].end, t);
  EXPECT_EQ(a.critical_path[1].phase, "mpi_reduce");
  EXPECT_EQ(a.critical_path[1].begin, t);
  EXPECT_EQ(a.critical_path[1].end, departure);
  EXPECT_EQ(a.critical_path[2].phase, "transfer");
  EXPECT_EQ(a.critical_path[2].begin, departure);
  EXPECT_EQ(a.critical_path[3].phase, "mpi_broadcast");
  EXPECT_DOUBLE_EQ(a.critical_total, a.makespan);
}

TEST(AnalyzeCriticalPath, IterationWindowsComeFromEngineLane) {
  obs::Tracer tracer;
  tracer.complete(0, "compute", "compute", 0.0, 1.0);
  tracer.complete(obs::kEngineLane, "greedy_iteration", "engine", 0.0, 0.5,
                  {{"iteration", "0"}});
  tracer.complete(obs::kEngineLane, "greedy_iteration", "engine", 0.5, 1.0,
                  {{"iteration", "1"}});

  const obs::TraceAnalysis a = obs::analyze_trace(tracer);
  EXPECT_EQ(a.rank_lanes, 1u);  // the engine lane is a driver lane, not a rank
  ASSERT_EQ(a.iterations.size(), 2u);
  EXPECT_EQ(a.iterations[0].index, 0u);
  EXPECT_DOUBLE_EQ(a.iterations[0].end, 0.5);
  EXPECT_EQ(a.iterations[1].index, 1u);
}

TEST(AnalyzeFolded, SelfTimeExcludesChildrenAndSiblingsShareStacks) {
  obs::Tracer tracer;
  tracer.set_lane_name(0, "r0");
  tracer.complete(0, "gpu_kernel", "gpu", 0.0, 0.5);
  tracer.complete(0, "gpu_kernel", "gpu", 0.0, 0.25);  // concurrent sibling
  tracer.complete(0, "compute", "compute", 0.0, 1.0);  // parent appended last

  // compute self = 1.0 - (0.5 + 0.25); the two kernels fold into one stack
  // (they are siblings, not a kernel-inside-kernel chain).
  EXPECT_EQ(obs::folded_stacks(tracer),
            "r0;compute 250000\n"
            "r0;compute;gpu_kernel 750000\n");
}

TEST(AnalyzeOffline, ChromeRoundTripIsLossless) {
  const obs::Tracer live = two_rank_tracer();
  const std::string chrome = live.to_chrome_json();
  const obs::Tracer offline = obs::tracer_from_chrome(JsonValue::parse(chrome));

  // Re-export, re-analysis, and flamegraph of the reconstructed tracer are
  // byte-identical to the live ones — obstool on a saved trace must agree
  // with an analysis of the live tracer.
  EXPECT_EQ(offline.to_chrome_json(), chrome);
  EXPECT_EQ(obs::folded_stacks(offline), obs::folded_stacks(live));
  const obs::TraceAnalysis a = obs::analyze_trace(live);
  const obs::TraceAnalysis b = obs::analyze_trace(offline);
  EXPECT_EQ(analysis_snapshot(a).dump(), analysis_snapshot(b).dump());
  EXPECT_EQ(obs::analysis_text(a), obs::analysis_text(b));
}

TEST(AnalyzeMetrics, RecordAnalysisWritesTheAnalysisAsGauges) {
  const obs::TraceAnalysis a = obs::analyze_trace(two_rank_tracer());
  const JsonValue snapshot = analysis_snapshot(a);
  EXPECT_EQ(snapshot.find("counters")->size(), 0u);
  EXPECT_EQ(snapshot.find("histograms")->size(), 0u);

  EXPECT_EQ(gauge_value(snapshot, "analysis.makespan_seconds", "{}"), 2.75);
  EXPECT_EQ(gauge_value(snapshot, "analysis.rank_lanes", "{}"), 2.0);
  EXPECT_EQ(gauge_value(snapshot, "analysis.comm_seconds", "{}"), a.comm_seconds);
  EXPECT_EQ(gauge_value(snapshot, "analysis.busy_seconds", "{}"), a.busy_seconds);
  EXPECT_EQ(gauge_value(snapshot, "analysis.comm_fraction", "{}"), a.comm_fraction);
  const char* compute = R"({"category":"compute","phase":"compute"})";
  EXPECT_EQ(gauge_value(snapshot, "analysis.phase.max_seconds", compute), 2.0);
  EXPECT_EQ(gauge_value(snapshot, "analysis.phase.max_over_mean", compute), 2.0 / 1.5);
  EXPECT_EQ(gauge_value(snapshot, "analysis.phase.straggler_lane", compute), 1.0);

  // One cell per (phase, lane) of the critical path, its segments summed.
  EXPECT_EQ(gauge_value(snapshot, "analysis.critical_seconds",
                        R"({"lane":"1","phase":"compute"})"),
            2.0);
  EXPECT_EQ(gauge_value(snapshot, "analysis.critical_seconds",
                        R"({"lane":"0","phase":"mpi_broadcast"})"),
            0.25);
  std::size_t cells = 0;
  for (const JsonValue& gauge : snapshot.find("gauges")->as_array()) {
    cells += gauge.find("name")->as_string() == "analysis.critical_seconds";
  }
  EXPECT_EQ(cells, a.critical_path.size());  // four segments, four cells
}

TEST(AnalyzeOffline, RejectsDocumentsThatAreNotTraces) {
  const auto analyze = [](const char* text) {
    return obs::tracer_from_chrome(JsonValue::parse(text));
  };
  EXPECT_THROW(analyze("{}"), obs::AnalysisError);
  EXPECT_THROW(analyze("{\"traceEvents\":5}"), obs::AnalysisError);
  EXPECT_THROW(analyze("{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"x\",\"cat\":\"t\","
                       "\"tid\":0,\"ts\":0}]}"),
               obs::AnalysisError);
  // Span with a non-string arg value.
  EXPECT_THROW(analyze("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\",\"cat\":\"t\","
                       "\"tid\":0,\"ts\":0,\"dur\":1,\"args\":{\"n\":3}}]}"),
               obs::AnalysisError);
  // Counter event without a numeric args.value.
  EXPECT_THROW(analyze("{\"traceEvents\":[{\"ph\":\"C\",\"name\":\"occupancy\","
                       "\"cat\":\"counter\",\"tid\":0,\"ts\":0,"
                       "\"args\":{\"value\":\"high\"}}]}"),
               obs::AnalysisError);
  EXPECT_THROW(analyze("{\"traceEvents\":[{\"ph\":\"C\",\"name\":\"occupancy\","
                       "\"cat\":\"counter\",\"tid\":0,\"ts\":0,\"args\":{}}]}"),
               obs::AnalysisError);
  // Unpaired flows: a start without a finish, a finish without a start, and
  // two starts sharing an id.
  EXPECT_THROW(analyze("{\"traceEvents\":[{\"ph\":\"s\",\"name\":\"m\",\"cat\":\"c\","
                       "\"tid\":0,\"ts\":0,\"id\":7}]}"),
               obs::AnalysisError);
  EXPECT_THROW(analyze("{\"traceEvents\":[{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"m\","
                       "\"cat\":\"c\",\"tid\":1,\"ts\":1,\"id\":7}]}"),
               obs::AnalysisError);
  EXPECT_THROW(analyze("{\"traceEvents\":["
                       "{\"ph\":\"s\",\"name\":\"m\",\"cat\":\"c\",\"tid\":0,\"ts\":0,\"id\":7},"
                       "{\"ph\":\"s\",\"name\":\"m\",\"cat\":\"c\",\"tid\":0,\"ts\":0,\"id\":7},"
                       "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"m\",\"cat\":\"c\",\"tid\":1,"
                       "\"ts\":1,\"id\":7}]}"),
               obs::AnalysisError);

  // Hostile values name their event and field.
  const std::string good =
      R"({"traceEvents":[{"ph":"X","name":"x","cat":"t","tid":0,"ts":0,"dur":1},)"
      R"({"ph":"s","name":"m","cat":"c","tid":0,"ts":0,"id":7},)"
      R"({"ph":"f","bp":"e","name":"m","cat":"c","tid":1,"ts":1,"id":7}]})";
  ASSERT_NO_THROW(analyze(good.c_str()));
  const auto reject = [](const std::string& text, const char* path) {
    hostile::expect_rejected<obs::AnalysisError>(obs::tracer_from_chrome, text, path);
  };
  reject(hostile::plant(good, "tid", "4294967297"), "traceEvents[0].tid");
  reject(hostile::plant(good, "tid", "-1"), "traceEvents[0].tid");
  reject(hostile::plant(good, "tid", "0.5"), "traceEvents[0].tid");
  reject(hostile::plant(good, "id", "1e30"), "traceEvents[1].id");
  reject(hostile::plant(good, "name", "5"), "traceEvents[0].name");
  reject(hostile::drop(good, "ts"), "traceEvents[0].ts");
  reject(hostile::plant(good, "dur", R"(1,"args":{"n":3})"), "traceEvents[0].args.n");
}

TEST(AnalyzeOffline, IterationWindowsTakeStrictIterationArgs) {
  // A window without an `iteration` arg keeps its position; with one, the
  // arg is the index.
  obs::Tracer trace;
  trace.complete(obs::kEngineLane, "greedy_iteration", "engine", 0.0, 0.5);
  trace.complete(obs::kEngineLane, "greedy_iteration", "engine", 0.5, 1.0,
                 {{"iteration", "7"}});
  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  ASSERT_EQ(a.iterations.size(), 2u);
  EXPECT_EQ(a.iterations[0].index, 0u);
  EXPECT_EQ(a.iterations[1].index, 7u);

  // A present value that is not a u32 is refused naming the span, never
  // wrapped ("-1" read as 4294967295) or cut short ("12abc" read as 12).
  for (const char* bad : {"x", "-1", "12abc", "4294967296"}) {
    obs::Tracer hostile;
    hostile.complete(obs::kEngineLane, "greedy_iteration", "engine", 0.0, 0.5,
                     {{"iteration", bad}});
    try {
      obs::analyze_trace(hostile);
      ADD_FAILURE() << "accepted iteration '" << bad << "'";
    } catch (const obs::AnalysisError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("span 'greedy_iteration' on lane "), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("iteration '") + bad + "'"), std::string::npos) << what;
    }
  }
}

TEST(AnalyzeOffline, MetricsCounterTotalsRejectHostileEntries) {
  const std::string good =
      R"({"schema":"multihit.metrics.v1","counters":[{"name":"a","labels":{},"value":5},)"
      R"({"name":"a","labels":{"op":"x"},"value":2}],"gauges":[],"histograms":[]})";
  // The unlabeled series is the name's total; its labeled part is not added.
  EXPECT_DOUBLE_EQ(obs::metrics_counter_totals(JsonValue::parse(good)).at("a"), 5.0);
  const auto reject = [](const std::string& text, const char* path) {
    hostile::expect_rejected<obs::AnalysisError>(obs::metrics_counter_totals, text, path);
  };
  reject(hostile::drop(good, "name"), "counters[0].name");
  reject(hostile::plant(good, "value", "\"x\""), "counters[0].value");
  reject(hostile::plant(good, "value", "1e999"), "counters[0].value");
  reject(hostile::plant(good, "value", "true", "\"op\""), "counters[1].value");
}

TEST(AnalyzeOffline, MetricsCounterTotalsSumLabeledPartsOnlyWithoutATotal) {
  const std::string parts =
      R"({"schema":"multihit.metrics.v1","counters":[{"name":"b","labels":{"op":"x"},"value":2},)"
      R"({"name":"b","labels":{"op":"y"},"value":3}],"gauges":[],"histograms":[]})";
  EXPECT_DOUBLE_EQ(obs::metrics_counter_totals(JsonValue::parse(parts)).at("b"), 5.0);
}

TEST(AnalyzeOffline, HealthIncidentTotalsCountEachIncidentOnce) {
  // record_health writes an unlabeled total beside one series per lane and
  // rule; a 2-incident report totals 2, not 4.
  obs::HealthReport report;
  report.incidents.push_back({"dead_rank", 1, "", 0.5, 0.0, true, 0.0, "", -1});
  report.incidents.push_back({"straggler", 2, "", 0.7, 0.9, false, 3.0, "", 0});
  obs::MetricsRegistry metrics;
  obs::record_health(report, metrics);
  EXPECT_DOUBLE_EQ(obs::metrics_counter_totals(metrics.snapshot()).at("health.incidents"), 2.0);
}

// --------------------------------------------------- cluster-model crosscheck

Dataset analyze_dataset(std::uint64_t seed, std::uint32_t genes = 40) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = seed;
  return generate_dataset(spec);
}

TEST(AnalyzeCluster, ReportAgreesWithClusterModelClocks) {
  const Dataset data = analyze_dataset(903);
  SummitConfig config;
  config.nodes = 4;
  obs::Recorder rec;
  DistributedOptions options;
  options.recorder = &rec;
  const ClusterRunResult result = ClusterRunner(config).run(data, options);

  const obs::TraceAnalysis a = obs::analyze_trace(rec.trace);
  EXPECT_EQ(a.rank_lanes, config.nodes);

  // The trace timeline is the per-rank SimComm clocks, which start at zero
  // and telescope through the iterations: the makespan must equal the
  // cluster model's summed iteration times, and the critical path tiles it.
  double iteration_sum = 0.0;
  for (const IterationTelemetry& it : result.iterations) iteration_sum += it.iteration_time;
  EXPECT_NEAR(a.makespan, iteration_sum, 1e-9 * iteration_sum);
  EXPECT_NEAR(a.critical_total, a.makespan, 1e-9 * a.makespan);

  // Iteration windows line up with the model's per-iteration clocks.
  ASSERT_EQ(a.iterations.size(), result.greedy.iterations.size());
  ASSERT_LE(a.iterations.size(), result.iterations.size());
  double cursor = 0.0;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_NEAR(a.iterations[i].begin, cursor, 1e-9 * a.makespan) << i;
    EXPECT_NEAR(a.iterations[i].end - a.iterations[i].begin,
                result.iterations[i].iteration_time, 1e-9 * a.makespan)
        << i;
    cursor = a.iterations[i].end;
  }

  EXPECT_GT(a.comm_fraction, 0.0);
  EXPECT_LT(a.comm_fraction, 1.0);
  EXPECT_GT(a.busy_seconds, 0.0);

  // The recorded critical-path cells tile the recorded makespan.
  const JsonValue snapshot = analysis_snapshot(a);
  EXPECT_EQ(gauge_value(snapshot, "analysis.makespan_seconds", "{}"), a.makespan);
  double cell_sum = 0.0;
  for (const JsonValue& gauge : snapshot.find("gauges")->as_array()) {
    if (gauge.find("name")->as_string() == "analysis.critical_seconds") {
      cell_sum += gauge.find("value")->as_number();
    }
  }
  EXPECT_NEAR(cell_sum, a.makespan, 1e-9 * a.makespan);
}

TEST(AnalyzeCluster, ReportsAreByteIdenticalAcrossRuns) {
  const Dataset data = analyze_dataset(904, 30);
  SummitConfig config;
  config.nodes = 3;
  const ClusterRunner runner(config);

  const auto artifacts = [&] {
    obs::Recorder rec;
    DistributedOptions options;
    options.recorder = &rec;
    options.max_iterations = 3;
    runner.run(data, options);
    return std::pair{analysis_snapshot(obs::analyze_trace(rec.trace)).dump(),
                     obs::folded_stacks(rec.trace)};
  };
  const auto [report_a, folded_a] = artifacts();
  const auto [report_b, folded_b] = artifacts();
  EXPECT_EQ(report_a, report_b);
  EXPECT_EQ(folded_a, folded_b);
}

TEST(AnalyzeCluster, EquiAreaBeatsEquiDistanceImbalance) {
  // The Fig. 3 claim, asserted on the analysis output: on the same workload
  // the equi-area schedule's compute-phase max/mean must not exceed the
  // naive equi-distance schedule's.
  const Dataset data = analyze_dataset(905);
  const auto compute_imbalance = [&](SchedulerKind kind) {
    SummitConfig config;
    config.nodes = 4;
    obs::Recorder rec;
    DistributedOptions options;
    options.scheduler = kind;
    options.recorder = &rec;
    ClusterRunner(config).run(data, options);
    const obs::TraceAnalysis a = obs::analyze_trace(rec.trace);
    for (const obs::PhaseStat& stat : a.phases) {
      if (stat.phase == "compute") return stat.max_over_mean;
    }
    ADD_FAILURE() << "no compute phase in analysis";
    return 0.0;
  };

  const double ea = compute_imbalance(SchedulerKind::kEquiArea);
  const double ed = compute_imbalance(SchedulerKind::kEquiDistance);
  EXPECT_GE(ea, 1.0);  // max/mean is >= 1 by construction
  EXPECT_LE(ea, ed + 1e-9);
}

}  // namespace
}  // namespace multihit
