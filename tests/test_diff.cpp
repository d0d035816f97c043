// Cross-run regression engine suite (src/obs/diff + src/obs/runinfo).
//
// The load-bearing properties, in order of importance:
//   1. Determinism: manifest and diff documents round-trip byte-identically
//      through their JSON renderers — the contract that lets ci.sh `cmp`
//      reports across invocations.
//   2. Exact classification: identical runs diff clean, a moved series is a
//      regression, and the improved/regressed label follows series direction.
//   3. Attribution from series: the summary's makespan clause and its "87%
//      attributed to reduce on rank 3" come from the analysis.* series the
//      pass already compared.
//   4. Input hygiene: ill-shaped snapshots are refused naming the entry, and
//      manifests with stale digests are refused, not silently diffed.

#include "obs/diff.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/distributed.hpp"
#include "data/generator.hpp"
#include "hostile_json.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/runinfo.hpp"
#include "obs/schema.hpp"
#include "obs/slo.hpp"

namespace multihit {
namespace {

using obs::DeltaClass;
using obs::DiffError;
using obs::DiffReport;
using obs::JsonValue;
using obs::RunInput;
using obs::RunManifest;
using obs::SeriesDelta;

// ------------------------------------------------------------------ fixtures

JsonValue metric_entry(const char* name, double value) {
  JsonValue entry = JsonValue::object();
  entry.set("name", name);
  entry.set("labels", JsonValue::object());
  entry.set("value", value);
  return entry;
}

/// A minimal multihit.metrics.v1 document with the given counters.
JsonValue metrics_doc(const std::vector<std::pair<const char*, double>>& counters) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", std::string(obs::kMetricsSchema));
  JsonValue entries = JsonValue::array();
  for (const auto& [name, value] : counters) entries.push_back(metric_entry(name, value));
  doc.set("counters", std::move(entries));
  doc.set("gauges", JsonValue::array());
  doc.set("histograms", JsonValue::array());
  return doc;
}

struct Cell {
  const char* phase;
  const char* lane;
  double seconds;
};

/// A minimal analysis snapshot, as obs::record_analysis writes one: the
/// makespan and the critical-path seconds of each (phase, lane) cell.
JsonValue analysis_doc(double makespan, const std::vector<Cell>& cells) {
  obs::MetricsRegistry metrics;
  metrics.gauge("analysis.makespan_seconds").set(makespan);
  for (const Cell& cell : cells) {
    metrics.gauge("analysis.critical_seconds", {{"lane", cell.lane}, {"phase", cell.phase}})
        .set(cell.seconds);
  }
  return metrics.snapshot();
}

RunInput metrics_run(const char* label,
                     const std::vector<std::pair<const char*, double>>& counters) {
  RunInput run;
  run.label = label;
  obs::add_doc(run, "metrics", metrics_doc(counters));
  return run;
}

/// Temp directory unique to one test, cleaned up on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("multihit_diff_") + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const char* name, const std::string& contents) const {
    const std::string full = (path / name).string();
    std::ofstream out(full);
    out << contents;
    return full;
  }
};

const SeriesDelta* find_series(const DiffReport& report, std::string_view name) {
  for (const SeriesDelta& delta : report.series) {
    if (delta.series == name) return &delta;
  }
  return nullptr;
}

// -------------------------------------------------------------- classification

TEST(DiffClassify, SelfDiffIsAllIdentical) {
  const RunInput a = metrics_run("a", {{"engine.iterations", 5}, {"gpu.launches", 60}});
  const RunInput b = metrics_run("b", {{"engine.iterations", 5}, {"gpu.launches", 60}});
  const DiffReport report = obs::diff_runs(a, b);
  EXPECT_EQ(report.counts.compared, 2u);
  EXPECT_EQ(report.counts.identical, 2u);
  EXPECT_TRUE(report.series.empty());
  EXPECT_FALSE(obs::diff_regression(report));
}

TEST(DiffClassify, DirectionPicksImprovedOrRegressed) {
  // seconds: lower is better; per_sec: higher is better.
  const RunInput a =
      metrics_run("a", {{"sweep.eval_seconds", 10}, {"sweep.combos_per_sec", 100}});
  const RunInput b =
      metrics_run("b", {{"sweep.eval_seconds", 12}, {"sweep.combos_per_sec", 90}});
  const DiffReport report = obs::diff_runs(a, b);
  EXPECT_EQ(report.counts.regressed, 2u);
  EXPECT_TRUE(obs::diff_regression(report));

  const DiffReport reverse = obs::diff_runs(b, a);
  EXPECT_EQ(reverse.counts.improved, 2u);
  EXPECT_EQ(reverse.counts.regressed, 0u);
  EXPECT_FALSE(obs::diff_regression(reverse));
}

TEST(DiffClassify, AddedAndRemovedSeries) {
  const RunInput a = metrics_run("a", {{"engine.iterations", 5}, {"old.counter", 1}});
  const RunInput b = metrics_run("b", {{"engine.iterations", 5}, {"new.counter", 1}});
  const DiffReport report = obs::diff_runs(a, b);
  EXPECT_EQ(report.counts.added, 1u);
  EXPECT_EQ(report.counts.removed, 1u);
  // A removed series means coverage shrank — that is a regression; a new
  // series alone is not.
  EXPECT_TRUE(obs::diff_regression(report));

  const SeriesDelta* added = find_series(report, "metrics.counter.new.counter");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->cls, DeltaClass::kAdded);
  EXPECT_FALSE(added->has_a);
}

TEST(DiffClassify, LowerIsBetterHeuristic) {
  EXPECT_TRUE(obs::lower_is_better("analysis.makespan_seconds"));
  EXPECT_TRUE(obs::lower_is_better("metrics.gauge.bench.p99_latency_s{unit=s}"));
  EXPECT_FALSE(
      obs::lower_is_better("metrics.gauge.slo.attainment{kind=latency,objective=0,tenant=gold}"));
  EXPECT_FALSE(
      obs::lower_is_better("metrics.gauge.slo.observed{kind=admission,objective=1,tenant=gold}"));
  EXPECT_TRUE(obs::lower_is_better(
      "metrics.counter.slo.violated{kind=admission,objective=1,tenant=gold}"));
  EXPECT_FALSE(obs::lower_is_better("metrics.gauge.bench.jobs_per_sec{unit=jobs/s}"));
  EXPECT_FALSE(obs::lower_is_better("metrics.histogram.gpu.occupancy.sum"));
  // The per_sec row names a series a run really emits: BENCH_serve_latency's
  // jobs_per_sec gauge, as the diff flattens it; rising is an improvement.
  RunInput slow, fast;
  for (auto [run, rate] : {std::pair{&slow, 1.0}, std::pair{&fast, 2.0}}) {
    obs::MetricsRegistry metrics;
    metrics.gauge("bench.jobs_per_sec", {{"unit", "jobs/s"}}).set(rate);
    obs::add_doc(*run, "metrics", metrics.snapshot());
  }
  const DiffReport report = obs::diff_runs(slow, fast);
  const SeriesDelta* delta = find_series(report, "metrics.gauge.bench.jobs_per_sec{unit=jobs/s}");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->cls, DeltaClass::kImproved);
}

// --------------------------------------------------------------- attribution

RunInput docs_run(const std::vector<std::pair<const char*, JsonValue>>& docs) {
  RunInput run;
  run.label = "run";
  for (const auto& [role, doc] : docs) obs::add_doc(run, role, doc);
  return run;
}

TEST(DiffAttribution, SummaryReadsTheMakespanAndTheCellThatMovedMost) {
  // A: compute 6s on rank 0, reduce 4s on rank 1. B: compute stretches to
  // 9s, reduce shrinks to 3.5s. Makespan 10 -> 12.5, and compute on rank 0
  // moved most: +3s, 120% of the makespan delta.
  const JsonValue before =
      analysis_doc(10.0, {{"compute", "0", 6.0}, {"mpi_reduce", "1", 4.0}});
  const JsonValue after =
      analysis_doc(12.5, {{"compute", "0", 9.0}, {"mpi_reduce", "1", 3.5}});
  const std::string clause =
      "; makespan +25.00% (10 s -> 12.5 s), 120% attributed to compute on rank 0; "
      "verdict: REGRESSION";

  // The analysis a manifest's trace derives, under role "analysis".
  const DiffReport derived =
      obs::diff_runs(docs_run({{"analysis", before}}), docs_run({{"analysis", after}}));
  EXPECT_EQ(derived.summary,
            "series 3: 0 identical, 1 improved, 2 regressed, 0 added, 0 removed" + clause);
  EXPECT_EQ(find_series(derived, "analysis.gauge.analysis.makespan_seconds")->cls,
            DeltaClass::kRegressed);
  EXPECT_EQ(
      find_series(derived, "analysis.gauge.analysis.critical_seconds{lane=1,phase=mpi_reduce}")
          ->cls,
      DeltaClass::kImproved);

  // A bare `analyze --report-out` snapshot loads under role "metrics" and
  // reads the same.
  const DiffReport bare =
      obs::diff_runs(docs_run({{"metrics", before}}), docs_run({{"metrics", after}}));
  EXPECT_EQ(bare.summary, derived.summary);

  // With both, the first role in name order speaks: "analysis" before
  // "metrics", whichever of the two moved.
  const JsonValue still = analysis_doc(20.0, {{"compute", "1", 20.0}});
  const DiffReport analysis_moved = obs::diff_runs(
      docs_run({{"analysis", before}, {"metrics", still}}),
      docs_run({{"analysis", after}, {"metrics", still}}));
  EXPECT_NE(analysis_moved.summary.find(clause), std::string::npos) << analysis_moved.summary;
  const DiffReport metrics_moved = obs::diff_runs(
      docs_run({{"analysis", still}, {"metrics", before}}),
      docs_run({{"analysis", still}, {"metrics", after}}));
  EXPECT_NE(metrics_moved.summary.find("; makespan unchanged; verdict: REGRESSION"),
            std::string::npos)
      << metrics_moved.summary;

  // No makespan on one side: no makespan clause.
  const DiffReport one_sided = obs::diff_runs(
      docs_run({{"analysis", before}}), docs_run({{"analysis", metrics_doc({{"a", 1}})}}));
  EXPECT_EQ(one_sided.summary.find("makespan"), std::string::npos) << one_sided.summary;
}

// ------------------------------------------------------------- round-tripping

TEST(RunManifestJson, RejectsHostileFieldsNamingTheirPath) {
  RunManifest manifest;
  manifest.driver = "brca_scaleout";
  obs::set_config(manifest, "nodes", "2");
  obs::RunArtifact artifact;
  artifact.name = "metrics";
  artifact.schema = std::string(obs::kMetricsSchema);
  artifact.path = "run.metrics.json";
  artifact.bytes = 10;
  artifact.digest = "0123";
  manifest.artifacts.push_back(artifact);
  const std::string good = obs::manifest_json(manifest).dump();
  ASSERT_NO_THROW(obs::manifest_from_json(JsonValue::parse(good)));

  const auto reject = [](const std::string& text, const char* path) {
    hostile::expect_rejected<obs::RuninfoError>(obs::manifest_from_json, text, path);
  };
  reject(hostile::plant(good, "driver", "5"), "run manifest: driver");
  reject(hostile::plant(good, "nodes", "2"), "config.nodes");
  reject(hostile::drop(good, "path"), "artifacts[0].path");
  reject(hostile::plant(good, "bytes", "-1"), "artifacts[0].bytes");
  reject(hostile::plant(good, "bytes", "2.5"), "artifacts[0].bytes");
  reject(hostile::plant(good, "bytes", "1e30"), "artifacts[0].bytes");
}

TEST(RunManifestJson, RoundTripsByteIdentically) {
  TempDir dir("manifest_roundtrip");
  const std::string artifact =
      dir.file("run.metrics.json", metrics_doc({{"engine.iterations", 5}}).dump() + "\n");

  RunManifest manifest;
  manifest.driver = "brca_scaleout";
  obs::set_config(manifest, "nodes", "2");
  obs::set_config(manifest, "scheduler", "equi_area");
  obs::add_artifact_from_file(manifest, "metrics", std::string(obs::kMetricsSchema),
                              artifact);

  const std::string first = obs::manifest_json(manifest).dump();
  const RunManifest reparsed = obs::manifest_from_json(JsonValue::parse(first));
  const std::string second = obs::manifest_json(reparsed).dump();
  EXPECT_EQ(first, second);
}

// -------------------------------------------------------------- input hygiene

TEST(DiffLoadRun, SingleArtifactLoadsUnderItsKind) {
  TempDir dir("single_artifact");
  const std::string path =
      dir.file("metrics.json", metrics_doc({{"engine.iterations", 5}}).dump() + "\n");
  const RunInput run = obs::load_run(path);
  EXPECT_FALSE(run.has_manifest);
  ASSERT_EQ(run.docs.size(), 1u);
  EXPECT_EQ(run.docs[0].first, "metrics");
}

TEST(DiffLoadRun, ManifestLoadsInventoryAndVerifiesDigests) {
  TempDir dir("manifest_ok");
  const std::string metrics_path =
      dir.file("run.metrics.json", metrics_doc({{"engine.iterations", 5}}).dump() + "\n");
  RunManifest manifest;
  manifest.driver = "brca_scaleout";
  obs::add_artifact_from_file(manifest, "metrics", std::string(obs::kMetricsSchema),
                              metrics_path);
  // Store the relative spelling, as the drivers do, to prove paths resolve
  // against the manifest's own directory.
  manifest.artifacts[0].path = "run.metrics.json";
  const std::string manifest_path = (dir.path / "manifest.json").string();
  ASSERT_TRUE(obs::write_manifest(manifest, manifest_path));

  const RunInput run = obs::load_run(manifest_path);
  EXPECT_TRUE(run.has_manifest);
  ASSERT_EQ(run.docs.size(), 1u);
  EXPECT_EQ(run.docs[0].first, "metrics");
}

TEST(DiffLoadRun, StaleDigestIsRefused) {
  TempDir dir("manifest_stale");
  const std::string metrics_path =
      dir.file("run.metrics.json", metrics_doc({{"engine.iterations", 5}}).dump() + "\n");
  RunManifest manifest;
  manifest.driver = "brca_scaleout";
  obs::add_artifact_from_file(manifest, "metrics", std::string(obs::kMetricsSchema),
                              metrics_path);
  const std::string manifest_path = (dir.path / "manifest.json").string();
  ASSERT_TRUE(obs::write_manifest(manifest, manifest_path));

  // Rewrite the artifact after the manifest was sealed.
  dir.file("run.metrics.json", metrics_doc({{"engine.iterations", 6}}).dump() + "\n");
  try {
    obs::load_run(manifest_path);
    FAIL() << "expected DiffError";
  } catch (const DiffError& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(DiffLoadRun, ContentDigestIsStable) {
  EXPECT_EQ(obs::content_digest(""), "cbf29ce484222325");
  EXPECT_EQ(obs::content_digest("a"), obs::content_digest("a"));
  EXPECT_NE(obs::content_digest("a"), obs::content_digest("b"));
  EXPECT_EQ(obs::content_digest("x").size(), 16u);
}

// ------------------------------------------------- analysis from the trace

/// Writes a run shaped like `brca_scaleout --artifacts-dir`: a cluster run's
/// Chrome trace and metrics under `dir`, inventoried by `<tag>.manifest.json`
/// (returned) with manifest-relative paths.
std::string write_cluster_run(const TempDir& dir, const std::string& tag,
                              SchedulerKind scheduler) {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = 907;
  SummitConfig config;
  config.nodes = 3;
  obs::Recorder rec;
  DistributedOptions options;
  options.scheduler = scheduler;
  options.recorder = &rec;
  ClusterRunner(config).run(generate_dataset(spec), options);

  RunManifest manifest;
  manifest.driver = "brca_scaleout";
  // In name order: the inventory stays sorted, so each entry lands last.
  for (const auto& [name, schema] :
       {std::pair<std::string, std::string_view>{"metrics", obs::kMetricsSchema},
        {"trace", obs::kChromeTraceTag}}) {
    const std::string file = tag + ".run." + name + ".json";
    const std::string contents =
        name == "trace" ? rec.trace.to_chrome_json() : rec.metrics.to_json();
    obs::add_artifact_from_file(manifest, name, std::string(schema),
                                dir.file(file.c_str(), contents + "\n"));
    manifest.artifacts.back().path = file;
  }
  const std::string path = (dir.path / (tag + ".manifest.json")).string();
  EXPECT_TRUE(obs::write_manifest(manifest, path));
  return path;
}

TEST(DiffLoadRun, ManifestTraceDerivesTheCriticalPath) {
  // A manifest inventories only the trace and the metrics; the analysis is
  // a view of the trace, recorded as analysis.* series on load, so an
  // EA-vs-ED pair still gets the critical-path section and those series.
  TempDir dir("trace_analysis");
  const RunInput ea = obs::load_run(write_cluster_run(dir, "ea", SchedulerKind::kEquiArea));
  const RunInput ed = obs::load_run(write_cluster_run(dir, "ed", SchedulerKind::kEquiDistance));
  for (const RunInput* run : {&ea, &ed}) {
    ASSERT_EQ(run->docs.size(), 2u);
    EXPECT_EQ(run->docs[0].first, "analysis");
    EXPECT_EQ(run->docs[1].first, "metrics");
    ASSERT_EQ(run->digests.size(), 2u);  // the files, not the derived view
    EXPECT_EQ(run->digests[0].first, "metrics");
    EXPECT_EQ(run->digests[1].first, "trace");
  }

  // The summary's makespan clause reads the analysis series: the makespan
  // pair, and the critical_seconds cell with the largest |b - a|.
  const DiffReport report = obs::diff_runs(ea, ed);
  const SeriesDelta* makespan = find_series(report, "analysis.gauge.analysis.makespan_seconds");
  ASSERT_NE(makespan, nullptr);
  ASSERT_TRUE(makespan->has_a && makespan->has_b);
  EXPECT_EQ(find_series(report, "metrics.gauge.analysis.makespan_seconds"), nullptr);
  const std::string cells = "analysis.gauge.analysis.critical_seconds{";
  const SeriesDelta* top = nullptr;
  for (const SeriesDelta& delta : report.series) {
    if (!delta.series.starts_with(cells)) continue;
    if (!top || std::abs(delta.b - delta.a) > std::abs(top->b - top->a)) top = &delta;
  }
  ASSERT_NE(top, nullptr);
  const double makespan_delta = makespan->b - makespan->a;
  const std::string clause =
      obs::fmt("; makespan %+.2f%% (", makespan_delta / makespan->a * 100.0) +
      obs::json_number(makespan->a) + " s -> " + obs::json_number(makespan->b) + " s), " +
      obs::fmt("%.0f%% attributed to ", (top->b - top->a) / makespan_delta * 100.0);
  const std::size_t at = report.summary.find(clause);
  ASSERT_NE(at, std::string::npos) << report.summary << "\nwant: " << clause;
  // "<phase> on rank <lane>;" names the top cell.
  const std::string named = report.summary.substr(at + clause.size());
  const std::size_t on_rank = named.find(" on rank ");
  ASSERT_NE(on_rank, std::string::npos) << named;
  const std::string phase = named.substr(0, on_rank);
  const std::string lane = named.substr(on_rank + 9, named.find(';') - on_rank - 9);
  EXPECT_EQ(top->series, cells + "lane=" + lane + ",phase=" + phase + "}");

  // `obstool analyze --report-out` snapshots of the same two traces, diffed
  // bare, give the same makespan clause.
  const auto analyze_file = [&dir](const char* tag) {
    std::ifstream in(dir.path / (std::string(tag) + ".run.trace.json"));
    std::stringstream text;
    text << in.rdbuf();
    obs::MetricsRegistry metrics;
    obs::record_analysis(obs::analyze_trace(obs::tracer_from_chrome(JsonValue::parse(text.str()))),
                         metrics);
    return obs::load_run(dir.file((std::string(tag) + ".analysis.json").c_str(),
                                  metrics.to_json() + "\n"));
  };
  const DiffReport bare = obs::diff_runs(analyze_file("ea"), analyze_file("ed"));
  const std::size_t bare_at = bare.summary.find("; makespan");
  ASSERT_NE(bare_at, std::string::npos) << bare.summary;
  EXPECT_EQ(bare.summary.substr(bare_at, bare.summary.find("; verdict") - bare_at),
            report.summary.substr(at, report.summary.find("; verdict") - at));
}

TEST(DiffLoadRun, TraceWithoutRankLanesDerivesNothingAndABadTraceIsNamed) {
  TempDir dir("trace_lanes");
  const auto manifest_of = [&dir](const char* tag, const std::string& trace) {
    RunManifest manifest;
    manifest.driver = "multihit-serve";
    const std::string file = std::string(tag) + ".trace.json";
    obs::add_artifact_from_file(manifest, "trace", std::string(obs::kChromeTraceTag),
                                dir.file(file.c_str(), trace));
    manifest.artifacts.back().path = file;
    const std::string path = (dir.path / (std::string(tag) + ".manifest.json")).string();
    EXPECT_TRUE(obs::write_manifest(manifest, path));
    return path;
  };

  // A serve-shaped trace: spans on driver lanes only, no rank lane.
  obs::Tracer serve;
  serve.complete(obs::kSchedulerLane, "job", "serve", 0.0, 1.0);
  serve.complete(obs::kEngineLane, "greedy_iteration", "engine", 0.0, 0.5);
  const RunInput run = obs::load_run(manifest_of("serve", serve.to_chrome_json()));
  EXPECT_TRUE(run.docs.empty());
  ASSERT_EQ(run.digests.size(), 1u);
  EXPECT_EQ(run.digests[0].first, "trace");

  try {
    obs::load_run(manifest_of("bad", R"({"traceEvents":5})"));
    FAIL() << "expected DiffError";
  } catch (const DiffError& e) {
    EXPECT_NE(std::string(e.what()).find("artifact \"trace\""), std::string::npos) << e.what();
  }
}

// ----------------------------------------------------------------- incidents

TEST(DiffIncidents, NewIncidentInBIsARegression) {
  // Incidents are health.incidents counters (obs::record_health): the
  // unlabeled total plus one series per (lane, rule) group.
  const auto health = [](const std::vector<std::string>& lanes) {
    JsonValue counters = JsonValue::array();
    counters.push_back(metric_entry("health.incidents", static_cast<double>(lanes.size())));
    for (const std::string& lane : lanes) {
      JsonValue entry = metric_entry("health.incidents", 1.0);
      JsonValue labels = JsonValue::object();
      labels.set("lane", lane);
      labels.set("rule", "straggler");
      entry.set("labels", std::move(labels));
      counters.push_back(std::move(entry));
    }
    JsonValue doc = metrics_doc({});
    doc.set("counters", std::move(counters));
    RunInput run;
    run.label = "run";
    obs::add_doc(run, "metrics", std::move(doc));
    return run;
  };

  // One more incident in B raises the lower-is-better total.
  const DiffReport added = obs::diff_runs(health({}), health({"3"}));
  const SeriesDelta* total = find_series(added, "metrics.counter.health.incidents");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->cls, DeltaClass::kRegressed);
  const SeriesDelta* group =
      find_series(added, "metrics.counter.health.incidents{lane=3,rule=straggler}");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->cls, DeltaClass::kAdded);
  EXPECT_TRUE(obs::diff_regression(added));

  // The same count on another lane leaves a removed series.
  const DiffReport moved = obs::diff_runs(health({"3"}), health({"4"}));
  EXPECT_EQ(moved.counts.regressed, 0u);
  EXPECT_EQ(moved.counts.removed, 1u);
  EXPECT_TRUE(obs::diff_regression(moved));

  // The same incidents on both sides diff clean.
  EXPECT_FALSE(obs::diff_regression(obs::diff_runs(health({"3"}), health({"3"}))));
}

// ---------------------------------------------------------------------- SLOs

TEST(DiffSlo, NewlyViolatedObjectiveIsARegression) {
  // SLO verdicts are slo.* metrics (obs::record_slo). Run B sheds one of
  // gold's two requests, so its admission objective is newly violated.
  const std::vector<obs::SloObjective> spec =
      obs::parse_slo("slo * latency p99 below 5\nslo * admission above 0.9\n");
  const auto slo_run = [&spec](bool shed_one) {
    obs::SloInput input;
    for (int i = 0; i < 2; ++i) {
      obs::SloJob job;
      job.tenant = "gold";
      job.arrival = 10.0 * i;
      job.rejected = shed_one && i == 1;
      job.finish = job.rejected ? -1.0 : job.arrival + 1.0;
      job.latency = job.rejected ? 0.0 : 1.0;
      input.jobs.push_back(job);
    }
    obs::MetricsRegistry metrics;
    obs::record_slo(obs::evaluate_slo(input, spec), metrics);
    RunInput run;
    run.label = shed_one ? "b" : "a";
    obs::add_doc(run, "metrics", metrics.snapshot());
    return run;
  };

  const DiffReport report = obs::diff_runs(slo_run(false), slo_run(true));
  for (const char* name :
       {"metrics.counter.slo.violated",
        "metrics.counter.slo.violated{kind=admission,objective=1,tenant=gold}",
        // A falling admission rate: the label's `admission` token makes the
        // series higher-is-better.
        "metrics.gauge.slo.observed{kind=admission,objective=1,tenant=gold}"}) {
    const SeriesDelta* delta = find_series(report, name);
    ASSERT_NE(delta, nullptr) << name;
    EXPECT_EQ(delta->cls, DeltaClass::kRegressed) << name;
  }
  EXPECT_EQ(
      find_series(report, "metrics.counter.slo.violated{kind=latency,objective=0,tenant=gold}"),
      nullptr);
  EXPECT_TRUE(obs::diff_regression(report));

  EXPECT_FALSE(obs::diff_regression(obs::diff_runs(slo_run(true), slo_run(true))));
}

TEST(DiffSections, HostileLaneLabelsDiffWithoutACrash) {
  // A critical_seconds lane label is a label like any other: whatever it
  // holds, the cell diffs as a series and the summary names it verbatim.
  for (const char* lane : {"x", "-1", "4294967296", ""}) {
    const DiffReport report =
        obs::diff_runs(docs_run({{"analysis", analysis_doc(2.0, {{"compute", lane, 2.0}})}}),
                       docs_run({{"analysis", analysis_doc(3.0, {{"compute", lane, 3.0}})}}));
    EXPECT_EQ(report.summary,
              std::string("series 2: 0 identical, 0 improved, 2 regressed, 0 added, 0 removed; "
                          "makespan +50.00% (2 s -> 3 s), 100% attributed to compute on rank ") +
                  lane + "; verdict: REGRESSION");
    EXPECT_NE(obs::diff_report_json(report).dump().find(report.summary), std::string::npos);
    EXPECT_NE(obs::diff_text(report).find(report.summary), std::string::npos);
  }
}

TEST(DiffMetrics, RejectsIllShapedSnapshotsNamingTheEntry) {
  // A snapshot diffed against itself: every entry is read strictly, so a
  // junk section, a string value or a repeated series cannot pass as
  // "0 series, verdict ok" or as a removed series.
  const auto self_diff = [](const JsonValue& doc) {
    RunInput run;
    run.label = "run";
    obs::add_doc(run, "metrics", doc);
    return obs::diff_runs(run, run);
  };
  obs::MetricsRegistry metrics;
  metrics.counter("a").add(1.0);
  metrics.gauge("g", {{"unit", "s"}}).set(2.0);
  metrics.histogram("h").observe(3.0);
  const std::string good = metrics.to_json();
  ASSERT_EQ(self_diff(JsonValue::parse(good)).counts.identical, 9u);

  const auto reject = [&self_diff](const std::string& text, const char* path) {
    hostile::expect_rejected<DiffError>(self_diff, text, path);
  };
  reject(R"({"schema":"multihit.metrics.v1","counters":"junk","gauges":7})",
         "metrics: counters is a string, expected an array");
  reject(R"({"schema":"multihit.diff.v1","counters":[],"gauges":[],"histograms":[]})",
         "metrics: expected schema \"multihit.metrics.v1\"");
  reject(hostile::plant(good, "value", "\"1\""), "metrics: counters[0].value");
  reject(hostile::plant(good, "unit", "5"), "metrics: gauges[0].labels.unit");
  reject(hostile::drop(good, "p90"), "metrics: histograms[0].p90");
  reject(R"({"schema":"multihit.metrics.v1","counters":[],"gauges":[]})",
         "metrics: histograms is missing");
  const std::string twice = R"({"schema":"multihit.metrics.v1","counters":[)"
                            R"({"name":"a","labels":{},"value":1},)"
                            R"({"name":"a","labels":{},"value":2}],"gauges":[],"histograms":[]})";
  reject(twice, "metrics: counters[1] repeats the series metrics.counter.a");
}

}  // namespace
}  // namespace multihit
