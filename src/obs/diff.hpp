#pragma once
// Cross-run regression engine (multihit.diff.v1).
//
// Loads two runs — each a multihit.run.v1 manifest or a single artifact —
// and produces one deterministic comparison document. Three layers:
//
//  1. A generic series flattener turns every diffable artifact into
//     `role.dotted.path` → number/bool leaves (array elements keyed by their
//     identity fields: name, phase, tenant, rank, ...). Leaves are compared
//     exactly by default and classified identical / within-tolerance /
//     improved / regressed / added / removed. Tolerances come from a
//     `tol <series-glob> rel|abs <bound>` grammar (slo.cpp-style parser;
//     last matching rule wins), because the right default for a
//     deterministic simulator is *exact* — every relaxation should be a
//     committed, reviewable line.
//
//  2. Specialized sections that know artifact semantics: critical-path
//     segment diffing that attributes the makespan delta to phase×lane
//     cells (the cells plus an explicit residual sum to the delta exactly),
//     per-kernel profile deltas (duration, DRAM bytes, occupancy, roofline
//     movement), incident matching by rule+lane+overlapping window,
//     per-tenant SLO attainment/burn deltas, and hostprof wall-clock /
//     worker-imbalance deltas. Hostprof is special-cased on the series side
//     too: only its deterministic projection (workload + totals + backend
//     attribution) is flattened, so wall-clock noise lands here instead of
//     tripping the exact gate.
//
//  3. A verdict: regression iff any series regressed or disappeared, an
//     incident appeared in B that A does not have, or an SLO objective is
//     newly violated. Config changes and artifact-coverage differences are
//     reported but informational — comparing an EA run against an ED run is
//     the point, not an error.
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
/// mismatches, tolerance-grammar errors (naming the offending line), and
/// section ids (lane, rank, gpu, iteration) that are not integers in
/// [0, 2^32) (naming their path).
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
/// rejections...). Higher-is-better names (attainment, occupancy,
/// throughput, admission, ...) return false. The heuristic only picks the
/// improved/regressed label — the *gate* treats any uncovered delta on a
/// lower-is-better=false series as regression-worthy via kRegressed when it
/// moves down.
bool lower_is_better(std::string_view series);

// --- specialized sections --------------------------------------------------

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
  bool present = false;  ///< both runs carried an analysis artifact
  double makespan_a = 0.0;
  double makespan_b = 0.0;
  std::vector<AttributionCell> cells;  ///< sorted by (phase, lane)
};

/// Per-(rank, gpu, iteration) kernel aggregate deltas; only rows where some
/// field moved are listed, totals always.
struct KernelRowDiff {
  std::uint32_t rank = 0;
  std::uint32_t gpu = 0;
  std::uint32_t iteration = 0;
  double launches_a = 0.0, launches_b = 0.0;
  double seconds_a = 0.0, seconds_b = 0.0;
  double dram_bytes_a = 0.0, dram_bytes_b = 0.0;
  double occupancy_a = 0.0, occupancy_b = 0.0;      ///< launch-mean
  double intensity_a = 0.0, intensity_b = 0.0;      ///< launch-mean flop/byte
  double memory_bound_a = 0.0, memory_bound_b = 0.0;  ///< bound-launch count
};

struct KernelDiff {
  bool present = false;
  double launches_a = 0.0, launches_b = 0.0;
  double seconds_a = 0.0, seconds_b = 0.0;
  double dram_bytes_a = 0.0, dram_bytes_b = 0.0;
  double memory_bound_fraction_a = 0.0, memory_bound_fraction_b = 0.0;
  std::vector<KernelRowDiff> rows;  ///< sorted by (rank, gpu, iteration)
};

/// One health incident as the matcher sees it.
struct IncidentKey {
  std::string rule;
  std::string kind;
  std::uint32_t lane = 0;
  std::string tenant;
  double fired = 0.0;
  double cleared = 0.0;
  double value = 0.0;
};

/// Incidents matched by (rule, kind, lane, tenant) + overlapping
/// [fired, cleared] windows; unmatched ones in B are `added` (a new alert
/// fired — that is a regression), unmatched in A are `removed`.
struct IncidentDiff {
  bool present = false;
  std::uint32_t matched = 0;
  std::vector<IncidentKey> added;
  std::vector<IncidentKey> removed;
};

/// Per-(tenant, objective) SLO movement.
struct SloObjectiveDiff {
  std::string tenant;
  std::string kind;
  double percentile = 0.0;
  double observed_a = 0.0, observed_b = 0.0;
  double attainment_a = 0.0, attainment_b = 0.0;
  double burn_a = 0.0, burn_b = 0.0;  ///< max slow-window burn (budget only)
  bool violated_a = false, violated_b = false;
};

struct SloDiff {
  bool present = false;
  std::vector<SloObjectiveDiff> objectives;  ///< sorted by (tenant, kind, percentile)
};

/// Hostprof wall-clock + imbalance movement: informational by design (wall
/// clock is the one number the simulator does not control).
struct HostprofPhaseDiff {
  std::string phase;
  double max_over_mean_a = 0.0, max_over_mean_b = 0.0;
  double straggler_lane_a = 0.0, straggler_lane_b = 0.0;
};

struct HostprofDiff {
  bool present = false;
  double wall_a = 0.0, wall_b = 0.0;
  double eval_a = 0.0, eval_b = 0.0;
  double tail_idle_a = 0.0, tail_idle_b = 0.0;
  double combos_per_sec_a = 0.0, combos_per_sec_b = 0.0;
  std::vector<HostprofPhaseDiff> phases;  ///< sorted by phase
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
/// verifies each digest; any other registered schema loads as a
/// single-artifact run under its registry kind. Throws DiffError on
/// unreadable files, unknown schemas, schema/inventory mismatches, and
/// digest mismatches.
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
  KernelDiff kernels;
  IncidentDiff incidents;
  SloDiff slo;
  HostprofDiff hostprof;
  std::uint32_t slo_newly_violated = 0;
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
