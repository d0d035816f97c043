#pragma once
// Cross-run regression engine (multihit.diff.v1).
//
// Loads two runs — each a multihit.run.v1 manifest or a single artifact —
// and produces one deterministic comparison document. Three layers:
//
//  1. Every diffable artifact flattens to named series. A metrics snapshot
//     (the run's metrics, and the analysis derived from its trace) gives
//     `<role>.<kind>.<name>{labels}`, read strictly: an ill-shaped entry or
//     a repeated (name, labels) throws. A serve report gives
//     `serve.dotted.path` → number/bool leaves (array elements keyed by
//     their identity fields: name, tenant, id, ...). Series are compared
//     exactly by default and classified identical / within-tolerance /
//     improved / regressed / added / removed. Tolerances come from a
//     `tol <series-glob> rel|abs <bound>` grammar (slo.cpp-style parser;
//     last matching rule wins), because the right default for a
//     deterministic simulator is *exact* — every relaxation should be a
//     committed, reviewable line.
//
//  2. One specialized section that knows artifact semantics: the
//     critical path, which attributes the makespan delta to the phase×lane
//     cells of the analysis's `analysis.critical_seconds{lane, phase}`
//     series (the cells plus an explicit residual sum to the delta
//     exactly). A bare analysis snapshot (`obstool analyze --report-out`)
//     carries those series too, so it gets the attribution as well.
//     Health incidents and SLO verdicts need no section: they are metrics.
//     One more incident raises the lower-is-better `health.incidents` total;
//     a newly violated objective raises `slo.violated`, both the total and
//     its {objective, kind, tenant} series; a falling attainment, or a
//     falling observed admission rate, regresses through the name's
//     higher-is-better token. An incident that moved lane or rule leaves a
//     removed series.
//
//  3. A verdict: regression iff any series regressed or disappeared. Config
//     changes and artifact-coverage differences are reported but
//     informational — comparing an EA run against an ED run is the point,
//     not an error.
//
// Determinism contract: same inputs + tolerances => byte-identical
// multihit.diff.v1 (series sorted by name, sections sorted by their keys,
// derived quantities recomputed from stored doubles at render time). The
// report is written, never read back: nothing parses multihit.diff.v1.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/runinfo.hpp"

namespace multihit::obs {

/// Raised on malformed inputs: unreadable files, wrong schemas, digest
/// mismatches, tolerance-grammar errors (naming the offending line),
/// ill-shaped or repeated metrics entries (naming `<role>: <path>`), and a
/// critical_seconds lane label that is not an integer in [0, 2^32) (naming
/// the series).
class DiffError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- tolerance grammar -----------------------------------------------------

/// One `tol <series-glob> rel|abs <bound>` rule. Globs support '*' (any
/// span) and '?' (any one character); everything else matches literally.
struct ToleranceRule {
  std::string glob;
  bool relative = true;  ///< rel: |b-a| <= bound*max(|a|,|b|); abs: |b-a| <= bound
  double bound = 0.0;
};

/// Parses the tolerance grammar ('#' comments, blank lines skipped); throws
/// DiffError naming the offending line.
std::vector<ToleranceRule> parse_tolerances(std::string_view text);

/// True when `glob` matches all of `name`.
bool glob_match(std::string_view glob, std::string_view name);

// --- series deltas ---------------------------------------------------------

enum class DeltaClass {
  kIdentical,        ///< bit-equal on both sides
  kWithinTolerance,  ///< differs, but a tol rule covers it
  kImproved,         ///< differs in the better direction for this series
  kRegressed,        ///< differs in the worse direction
  kAdded,            ///< present only in run B
  kRemoved,          ///< present only in run A
};

const char* delta_class_name(DeltaClass cls) noexcept;

/// One non-identical series (identical ones are counted, not listed).
struct SeriesDelta {
  std::string series;
  DeltaClass cls = DeltaClass::kIdentical;
  bool has_a = false;
  bool has_b = false;
  double a = 0.0;
  double b = 0.0;
  std::string tolerance;  ///< the covering rule's glob ("" when none)
};

/// True when smaller values of `series` are better (seconds, bytes, stalls,
/// rejections, violations...). Higher-is-better names (attainment,
/// occupancy, throughput, admission, ...) return false; the label suffix
/// counts, except on a violation count. The heuristic only picks the
/// improved/regressed label — the *gate* treats any uncovered delta on a
/// lower-is-better=false series as regression-worthy via kRegressed when it
/// moves down.
bool lower_is_better(std::string_view series);

// --- the critical-path section --------------------------------------------

/// One phase×lane cell of the makespan attribution: total critical-path
/// seconds attributed to (phase, lane) on each side. delta = b - a; the sum
/// of cell deltas plus `residual` equals the makespan delta exactly.
struct AttributionCell {
  std::string phase;
  std::uint32_t lane = 0;
  double a_seconds = 0.0;
  double b_seconds = 0.0;
};

struct CriticalPathDiff {
  bool present = false;  ///< both runs carried analysis.* series
  double makespan_a = 0.0;
  double makespan_b = 0.0;
  std::vector<AttributionCell> cells;  ///< sorted by (phase, lane)
};

// --- run inputs ------------------------------------------------------------

/// One side of a diff, fully in memory: a label (the CLI operand or a bench
/// scenario name), the manifest when one was loaded, and parsed artifact
/// documents keyed by role ("metrics", "analysis", ...; sorted).
struct RunInput {
  std::string label;
  bool has_manifest = false;
  RunManifest manifest;
  std::vector<std::pair<std::string, JsonValue>> docs;
  /// name → content digest for the artifact-coverage table (includes
  /// non-diffable artifacts like traces; sorted by name).
  std::vector<std::pair<std::string, std::string>> digests;
};

/// Registers an in-memory document under `role` (and digests its dump), for
/// in-process callers like bench_diff.
void add_doc(RunInput& run, std::string role, JsonValue doc);

/// Loads one side from disk. A multihit.run.v1 file loads every inventoried
/// artifact (paths resolved relative to the manifest's directory) and
/// verifies each digest; a trace with rank lanes adds its record_analysis
/// snapshot under role "analysis". A bare metrics or serve document loads
/// as a single-artifact run under its registry kind. Throws DiffError on
/// unreadable files, unknown schemas, schema/inventory mismatches, digest
/// mismatches, and traces that do not analyse.
RunInput load_run(const std::string& path);

// --- the report ------------------------------------------------------------

struct DiffOptions {
  std::vector<ToleranceRule> tolerances;
};

struct RunSummary {
  std::string label;
  std::string driver;
  std::vector<std::pair<std::string, std::string>> config;
};

/// One artifact's coverage row (union over both runs, sorted by name).
struct ArtifactDelta {
  std::string name;
  std::string schema;
  bool in_a = false;
  bool in_b = false;
  bool identical = false;  ///< digests equal (both sides present)
};

struct DiffCounts {
  std::uint32_t compared = 0;  ///< series present on at least one side
  std::uint32_t identical = 0;
  std::uint32_t within_tolerance = 0;
  std::uint32_t improved = 0;
  std::uint32_t regressed = 0;
  std::uint32_t added = 0;
  std::uint32_t removed = 0;
};

struct DiffReport {
  RunSummary run_a, run_b;
  std::vector<ToleranceRule> tolerances;  ///< echo, declaration order
  /// Config keys whose values differ (or exist on one side only); values
  /// are ("" when absent). Sorted by key. Informational.
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>> config_changes;
  std::vector<ArtifactDelta> artifacts;
  DiffCounts counts;
  std::vector<SeriesDelta> series;  ///< non-identical only, sorted by name
  CriticalPathDiff critical_path;
  std::string summary;  ///< one human sentence, embedded verbatim in the doc
};

/// True when the report's verdict is "regressed" (obstool diff exits 1).
bool diff_regression(const DiffReport& report) noexcept;

/// Compares two loaded runs under `options`. Pure and deterministic.
DiffReport diff_runs(const RunInput& a, const RunInput& b, const DiffOptions& options);

/// Renders the multihit.diff.v1 document (stable field order; identical
/// reports produce byte-identical documents).
JsonValue diff_report_json(const DiffReport& report);

/// Human-readable rendering; `summary_only` stops after the verdict line.
std::string diff_text(const DiffReport& report, bool summary_only = false);

}  // namespace multihit::obs
