// Cross-run regression engine suite (src/obs/diff + src/obs/runinfo).
//
// The load-bearing properties, in order of importance:
//   1. Determinism: manifest and diff documents round-trip byte-identically
//      through their JSON renderers — the contract that lets ci.sh `cmp`
//      reports across invocations.
//   2. Exact-by-default classification: identical runs diff clean, a moved
//      series is a regression unless a committed tolerance rule covers it,
//      and the improved/regressed label follows series direction.
//   3. Attribution accounting: phase×lane cell deltas plus the explicit
//      residual sum to the makespan delta exactly — the "87% attributed to
//      reduce on rank 3" sentence is arithmetic, not an estimate.
//   4. Input hygiene: tolerance-grammar errors name the offending line, and
//      manifests with stale digests are refused, not silently diffed.

#include "obs/diff.hpp"

#include <gtest/gtest.h>

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
using obs::DiffOptions;
using obs::DiffReport;
using obs::JsonValue;
using obs::RunInput;
using obs::RunManifest;
using obs::SeriesDelta;
using obs::ToleranceRule;

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

// ----------------------------------------------------------------- tolerance

TEST(DiffTolerance, ParsesRulesCommentsAndBlanks) {
  const std::vector<ToleranceRule> rules = obs::parse_tolerances(
      "# wall clock drifts\n"
      "\n"
      "tol hostprof.* rel 0.5\n"
      "tol metrics.counter.host.claims abs 2  # flaky counter\n");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].glob, "hostprof.*");
  EXPECT_TRUE(rules[0].relative);
  EXPECT_DOUBLE_EQ(rules[0].bound, 0.5);
  EXPECT_EQ(rules[1].glob, "metrics.counter.host.claims");
  EXPECT_FALSE(rules[1].relative);
  EXPECT_DOUBLE_EQ(rules[1].bound, 2.0);
}

TEST(DiffTolerance, ErrorsNameTheOffendingLine) {
  const auto expect_line = [](std::string_view text, const char* needle) {
    try {
      obs::parse_tolerances(text);
      FAIL() << "expected DiffError for: " << text;
    } catch (const DiffError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  expect_line("tol a rel 0.1\ntol b rel\n", "tol line 2");
  expect_line("nottol a rel 0.1\n", "tol line 1");
  expect_line("tol a sideways 0.1\n", "tol line 1");
  expect_line("tol a rel minusnine\n", "tol line 1");
  expect_line("tol a abs -1\n", "tol line 1");
}

TEST(DiffTolerance, GlobMatching) {
  EXPECT_TRUE(obs::glob_match("*", "anything.at.all"));
  EXPECT_TRUE(obs::glob_match("hostprof.*", "hostprof.totals.combinations"));
  EXPECT_FALSE(obs::glob_match("hostprof.*", "analysis.makespan_seconds"));
  EXPECT_TRUE(obs::glob_match("*.p9?", "metrics.histogram.latency.p99"));
  EXPECT_TRUE(obs::glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(obs::glob_match("a*b*c", "a-x-b-y"));
  EXPECT_TRUE(obs::glob_match("exact", "exact"));
  EXPECT_FALSE(obs::glob_match("exact", "exactly"));
}

// -------------------------------------------------------------- classification

TEST(DiffClassify, SelfDiffIsAllIdentical) {
  const RunInput a = metrics_run("a", {{"engine.iterations", 5}, {"gpu.launches", 60}});
  const RunInput b = metrics_run("b", {{"engine.iterations", 5}, {"gpu.launches", 60}});
  const DiffReport report = obs::diff_runs(a, b, DiffOptions{});
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
  const DiffReport report = obs::diff_runs(a, b, DiffOptions{});
  EXPECT_EQ(report.counts.regressed, 2u);
  EXPECT_TRUE(obs::diff_regression(report));

  const DiffReport reverse = obs::diff_runs(b, a, DiffOptions{});
  EXPECT_EQ(reverse.counts.improved, 2u);
  EXPECT_EQ(reverse.counts.regressed, 0u);
  EXPECT_FALSE(obs::diff_regression(reverse));
}

TEST(DiffClassify, AddedAndRemovedSeries) {
  const RunInput a = metrics_run("a", {{"engine.iterations", 5}, {"old.counter", 1}});
  const RunInput b = metrics_run("b", {{"engine.iterations", 5}, {"new.counter", 1}});
  const DiffReport report = obs::diff_runs(a, b, DiffOptions{});
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

TEST(DiffClassify, ToleranceCoversDriftAndLastRuleWins) {
  const RunInput a = metrics_run("a", {{"host.wall_seconds", 10}});
  const RunInput b = metrics_run("b", {{"host.wall_seconds", 11}});

  DiffOptions covered;
  covered.tolerances = obs::parse_tolerances("tol metrics.counter.host.* rel 0.5\n");
  const DiffReport ok = obs::diff_runs(a, b, covered);
  EXPECT_EQ(ok.counts.within_tolerance, 1u);
  EXPECT_FALSE(obs::diff_regression(ok));
  const SeriesDelta* delta = find_series(ok, "metrics.counter.host.wall_seconds");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->cls, DeltaClass::kWithinTolerance);
  EXPECT_EQ(delta->tolerance, "metrics.counter.host.*");

  // A later, tighter rule overrides the broad one: 10 -> 11 is outside
  // rel 0.01, so the drift regresses again.
  DiffOptions tightened;
  tightened.tolerances = obs::parse_tolerances(
      "tol metrics.counter.host.* rel 0.5\n"
      "tol metrics.counter.host.wall_seconds rel 0.01\n");
  const DiffReport bad = obs::diff_runs(a, b, tightened);
  EXPECT_EQ(bad.counts.regressed, 1u);
  EXPECT_TRUE(obs::diff_regression(bad));
}

TEST(DiffClassify, LowerIsBetterHeuristic) {
  EXPECT_TRUE(obs::lower_is_better("analysis.makespan_seconds"));
  EXPECT_TRUE(obs::lower_is_better("serve.aggregate.p99_latency"));
  EXPECT_FALSE(
      obs::lower_is_better("metrics.gauge.slo.attainment{kind=latency,objective=0,tenant=gold}"));
  EXPECT_FALSE(
      obs::lower_is_better("metrics.gauge.slo.observed{kind=admission,objective=1,tenant=gold}"));
  EXPECT_TRUE(obs::lower_is_better(
      "metrics.counter.slo.violated{kind=admission,objective=1,tenant=gold}"));
  EXPECT_FALSE(obs::lower_is_better("serve.summary.jobs_per_sec"));
  EXPECT_FALSE(obs::lower_is_better("metrics.histogram.gpu.occupancy.sum"));
  // The per_sec row names a series a run really emits: the serve summary's
  // jobs_per_sec, as the diff flattens it, rising is an improvement.
  RunInput slow, fast;
  for (auto [run, rate] : {std::pair{&slow, 1.0}, std::pair{&fast, 2.0}}) {
    JsonValue summary = JsonValue::object();
    summary.set("jobs_per_sec", rate);
    JsonValue doc = JsonValue::object();
    doc.set("summary", std::move(summary));
    obs::add_doc(*run, "serve", std::move(doc));
  }
  const DiffReport report = obs::diff_runs(slow, fast, DiffOptions{});
  const SeriesDelta* delta = find_series(report, "serve.summary.jobs_per_sec");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->cls, DeltaClass::kImproved);
}

// --------------------------------------------------------------- attribution

TEST(DiffAttribution, CellsPlusResidualSumToMakespanDelta) {
  // A: compute 6s on rank 0, reduce 4s on rank 1. B: compute stretches to
  // 9s, reduce shrinks to 3.5s. Makespan 10 -> 12.5.
  RunInput a;
  a.label = "a";
  obs::add_doc(a, "analysis",
              analysis_doc(10.0, {{"compute", "0", 6.0}, {"mpi_reduce", "1", 4.0}}));

  RunInput b;
  b.label = "b";
  obs::add_doc(b, "analysis",
              analysis_doc(12.5, {{"compute", "0", 9.0}, {"mpi_reduce", "1", 3.5}}));

  const DiffReport report = obs::diff_runs(a, b, DiffOptions{});
  ASSERT_TRUE(report.critical_path.present);
  EXPECT_DOUBLE_EQ(report.critical_path.makespan_a, 10.0);
  EXPECT_DOUBLE_EQ(report.critical_path.makespan_b, 12.5);
  ASSERT_EQ(report.critical_path.cells.size(), 2u);

  // Cells are sorted by (phase, lane): compute/0 then mpi_reduce/1.
  EXPECT_EQ(report.critical_path.cells[0].phase, "compute");
  EXPECT_DOUBLE_EQ(report.critical_path.cells[0].b_seconds -
                       report.critical_path.cells[0].a_seconds,
                   3.0);
  EXPECT_EQ(report.critical_path.cells[1].phase, "mpi_reduce");
  EXPECT_DOUBLE_EQ(report.critical_path.cells[1].b_seconds -
                       report.critical_path.cells[1].a_seconds,
                   -0.5);

  // The rendered document's residual makes the attribution an identity:
  // sum(cell deltas) + residual == makespan delta, exactly.
  const JsonValue doc = obs::diff_report_json(report);
  const JsonValue* critical = doc.find("critical_path");
  ASSERT_NE(critical, nullptr);
  const double makespan_delta = critical->find("delta")->as_number();
  double cell_sum = 0.0;
  for (const JsonValue& cell : critical->find("cells")->as_array()) {
    cell_sum += cell.find("delta")->as_number();
  }
  const double residual = critical->find("residual")->as_number();
  EXPECT_EQ(cell_sum + residual, makespan_delta);
  EXPECT_DOUBLE_EQ(makespan_delta, 2.5);

  // The cells are series of a plain metrics snapshot: loaded bare, under
  // role "metrics", an analysis still gets its attribution.
  RunInput bare_a, bare_b;
  obs::add_doc(bare_a, "metrics", a.docs[0].second);
  obs::add_doc(bare_b, "metrics", b.docs[0].second);
  const DiffReport bare = obs::diff_runs(bare_a, bare_b, DiffOptions{});
  ASSERT_TRUE(bare.critical_path.present);
  EXPECT_EQ(obs::diff_report_json(bare).find("critical_path")->dump(), critical->dump());
  EXPECT_EQ(find_series(bare, "metrics.gauge.analysis.makespan_seconds")->cls,
            DeltaClass::kRegressed);
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

  const DiffReport report = obs::diff_runs(ea, ed, DiffOptions{});
  ASSERT_TRUE(report.critical_path.present);
  EXPECT_NE(report.critical_path.makespan_a, report.critical_path.makespan_b);
  EXPECT_NE(report.summary.find("attributed to"), std::string::npos) << report.summary;
  EXPECT_NE(find_series(report, "analysis.gauge.analysis.makespan_seconds"), nullptr);
  EXPECT_EQ(find_series(report, "metrics.gauge.analysis.makespan_seconds"), nullptr);

  const JsonValue doc = obs::diff_report_json(report);
  const JsonValue* critical = doc.find("critical_path");
  ASSERT_NE(critical, nullptr);
  double cell_sum = 0.0;
  for (const JsonValue& cell : critical->find("cells")->as_array()) {
    cell_sum += cell.find("delta")->as_number();
  }
  EXPECT_EQ(cell_sum + critical->find("residual")->as_number(),
            critical->find("delta")->as_number());

  // `obstool analyze --report-out` snapshots of the same two traces, diffed
  // bare, attribute the same makespan delta to the same cells.
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
  const DiffReport bare = obs::diff_runs(analyze_file("ea"), analyze_file("ed"), DiffOptions{});
  EXPECT_EQ(obs::diff_report_json(bare).find("critical_path")->dump(), critical->dump());
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
  const DiffReport added = obs::diff_runs(health({}), health({"3"}), DiffOptions{});
  const SeriesDelta* total = find_series(added, "metrics.counter.health.incidents");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->cls, DeltaClass::kRegressed);
  const SeriesDelta* group =
      find_series(added, "metrics.counter.health.incidents{lane=3,rule=straggler}");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->cls, DeltaClass::kAdded);
  EXPECT_TRUE(obs::diff_regression(added));

  // The same count on another lane leaves a removed series.
  const DiffReport moved = obs::diff_runs(health({"3"}), health({"4"}), DiffOptions{});
  EXPECT_EQ(moved.counts.regressed, 0u);
  EXPECT_EQ(moved.counts.removed, 1u);
  EXPECT_TRUE(obs::diff_regression(moved));

  // The same incidents on both sides diff clean.
  EXPECT_FALSE(obs::diff_regression(obs::diff_runs(health({"3"}), health({"3"}), DiffOptions{})));
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

  const DiffReport report = obs::diff_runs(slo_run(false), slo_run(true), DiffOptions{});
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

  EXPECT_FALSE(obs::diff_regression(obs::diff_runs(slo_run(true), slo_run(true), DiffOptions{})));
}

TEST(DiffSections, RejectIdsOutsideU32NamingTheirPath) {
  // A critical_seconds lane label is a rank id: anything but a decimal
  // integer in [0, 2^32) is refused, naming the series, before a cell is
  // keyed on it.
  const JsonValue analysis = analysis_doc(2.0, {{"compute", "1", 2.0}});
  RunInput a;
  a.label = "a";
  obs::add_doc(a, "analysis", analysis);
  const auto diff_against_a = [&a](const JsonValue& other) {
    RunInput b;
    b.label = "b";
    obs::add_doc(b, "analysis", other);
    return obs::diff_runs(a, b, DiffOptions{});
  };
  ASSERT_NO_THROW(diff_against_a(analysis));
  for (const char* lane : {"\"-1\"", "\"4294967296\"", "\"1.5\"", "\"x\"", "\"\""}) {
    hostile::expect_rejected<DiffError>(
        diff_against_a, hostile::plant(analysis.dump(), "lane", lane),
        "analysis: gauges[0].labels.lane of analysis.critical_seconds");
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
    return obs::diff_runs(run, run, DiffOptions{});
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
  reject(R"({"schema":"multihit.serve.v1","counters":[],"gauges":[],"histograms":[]})",
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
