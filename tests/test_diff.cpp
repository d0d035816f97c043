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
#include <string>
#include <utility>
#include <vector>

#include "hostile_json.hpp"
#include "obs/runinfo.hpp"
#include "obs/schema.hpp"

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

JsonValue segment(const char* phase, std::uint32_t lane, double begin, double end) {
  JsonValue seg = JsonValue::object();
  seg.set("lane", static_cast<double>(lane));
  seg.set("phase", phase);
  seg.set("begin_seconds", begin);
  seg.set("end_seconds", end);
  return seg;
}

/// A minimal multihit.analysis.v1 document whose critical path is the given
/// segments (assumed to tile [0, makespan]).
JsonValue analysis_doc(double makespan, std::vector<JsonValue> segments) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", std::string(obs::kAnalysisSchema));
  doc.set("makespan_seconds", makespan);
  JsonValue critical = JsonValue::object();
  critical.set("total_seconds", makespan);
  JsonValue segs = JsonValue::array();
  for (JsonValue& seg : segments) segs.push_back(std::move(seg));
  critical.set("segments", std::move(segs));
  doc.set("critical_path", std::move(critical));
  return doc;
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
  EXPECT_FALSE(obs::lower_is_better("slo.tenants.attainment"));
  EXPECT_FALSE(obs::lower_is_better("hostprof.totals.combos_per_sec"));
  EXPECT_FALSE(obs::lower_is_better("profile.totals.occupancy"));
}

// --------------------------------------------------------------- attribution

TEST(DiffAttribution, CellsPlusResidualSumToMakespanDelta) {
  // A: compute 6s on rank 0, reduce 4s on rank 1. B: compute stretches to
  // 9s, reduce shrinks to 3.5s. Makespan 10 -> 12.5.
  RunInput a;
  a.label = "a";
  std::vector<JsonValue> segs_a;
  segs_a.push_back(segment("compute", 0, 0.0, 6.0));
  segs_a.push_back(segment("mpi_reduce", 1, 6.0, 10.0));
  obs::add_doc(a, "analysis", analysis_doc(10.0, std::move(segs_a)));

  RunInput b;
  b.label = "b";
  std::vector<JsonValue> segs_b;
  segs_b.push_back(segment("compute", 0, 0.0, 9.0));
  segs_b.push_back(segment("mpi_reduce", 1, 9.0, 12.5));
  obs::add_doc(b, "analysis", analysis_doc(12.5, std::move(segs_b)));

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

// ----------------------------------------------------------------- incidents

TEST(DiffIncidents, NewIncidentInBIsARegression) {
  const auto health = [](bool with_incident) {
    JsonValue doc = JsonValue::object();
    doc.set("schema", std::string(obs::kHealthSchema));
    JsonValue incidents = JsonValue::array();
    if (with_incident) {
      JsonValue incident = JsonValue::object();
      incident.set("rule", "straggler");
      incident.set("kind", "imbalance");
      incident.set("lane", 3);
      incident.set("tenant", "");
      incident.set("fired", 1.5);
      incident.set("cleared", 2.5);
      incident.set("value", 2.0);
      incidents.push_back(std::move(incident));
    }
    doc.set("incidents", std::move(incidents));
    doc.set("series", JsonValue::array());
    return doc;
  };
  RunInput a;
  a.label = "a";
  obs::add_doc(a, "health", health(false));
  RunInput b;
  b.label = "b";
  obs::add_doc(b, "health", health(true));

  const DiffReport report = obs::diff_runs(a, b, DiffOptions{});
  ASSERT_TRUE(report.incidents.present);
  ASSERT_EQ(report.incidents.added.size(), 1u);
  EXPECT_EQ(report.incidents.added[0].rule, "straggler");
  EXPECT_EQ(report.incidents.added[0].lane, 3u);
  EXPECT_TRUE(obs::diff_regression(report));

  // Same incident on both sides matches and is no longer a regression.
  RunInput a2;
  a2.label = "a2";
  obs::add_doc(a2, "health", health(true));
  const DiffReport matched = obs::diff_runs(a2, b, DiffOptions{});
  EXPECT_EQ(matched.incidents.matched, 1u);
  EXPECT_TRUE(matched.incidents.added.empty());
  EXPECT_FALSE(obs::diff_regression(matched));
}

/// Diffing a run that holds `doc` as `role` against one whose copy has the
/// first `key` set to `value` must throw DiffError naming `path`.
void expect_bad_id_rejected(const char* role, const JsonValue& doc, const char* key,
                            const char* value, const char* path) {
  RunInput a;
  a.label = "a";
  obs::add_doc(a, role, doc);
  const auto diff_against_a = [&](const JsonValue& other) {
    RunInput b;
    b.label = "b";
    obs::add_doc(b, role, other);
    return obs::diff_runs(a, b, DiffOptions{});
  };
  ASSERT_NO_THROW(diff_against_a(doc)) << role;
  hostile::expect_rejected<DiffError>(diff_against_a, hostile::plant(doc.dump(), key, value),
                                      path);
}

TEST(DiffSections, RejectIdsOutsideU32NamingTheirPath) {
  // Regression: ids were cast to u32 unchecked, undefined behaviour for a
  // health document carrying "lane": -1e20.
  const JsonValue analysis = analysis_doc(2.0, {segment("compute", 1, 0.0, 2.0)});
  expect_bad_id_rejected("analysis", analysis, "lane", "-1e20",
                         "analysis: critical_path.segments[0].lane");

  JsonValue kernel = JsonValue::object();
  kernel.set("rank", 0);
  kernel.set("gpu", 1);
  kernel.set("iteration", 2);
  kernel.set("sim_seconds", 1.0);
  JsonValue kernels = JsonValue::array();
  kernels.push_back(std::move(kernel));
  JsonValue profile = JsonValue::object();
  profile.set("schema", std::string(obs::kProfileSchema));
  profile.set("kernels", std::move(kernels));
  expect_bad_id_rejected("profile", profile, "rank", "4294967296", "profile: kernels[0].rank");
  expect_bad_id_rejected("profile", profile, "gpu", "1.5", "profile: kernels[0].gpu");
  expect_bad_id_rejected("profile", profile, "iteration", "-1", "profile: kernels[0].iteration");

  JsonValue incident = JsonValue::object();
  incident.set("rule", "straggler");
  incident.set("lane", 3);
  JsonValue incidents = JsonValue::array();
  incidents.push_back(std::move(incident));
  JsonValue health = JsonValue::object();
  health.set("schema", std::string(obs::kHealthSchema));
  health.set("incidents", std::move(incidents));
  expect_bad_id_rejected("health", health, "lane", "-1e20", "health: incidents[0].lane");
}

}  // namespace
}  // namespace multihit
