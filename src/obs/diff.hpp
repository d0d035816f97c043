#pragma once
// Cross-run regression engine (multihit.diff.v1).
//
// Loads two runs — each a multihit.run.v1 manifest or a single artifact —
// and produces one deterministic comparison document. Two layers:
//
//  1. The diff reads metrics only. Every metrics snapshot (the run's
//     metrics, and the analysis derived from its trace) flattens to
//     `<role>.<kind>.<name>{labels}` series, read strictly: an ill-shaped
//     entry or a repeated (name, labels) throws. Series are compared
//     exactly — the right default for a deterministic simulator — and
//     classified identical / improved / regressed / added / removed.
//     No artifact has a section of its own. The summary sentence reads its
//     makespan clause off series: the `<role>.gauge.analysis.makespan_seconds`
//     pair of the first role in name order (a manifest's derived "analysis"
//     before a bare snapshot's "metrics"), attributed to that role's
//     `analysis.critical_seconds{lane, phase}` cell that moved most. One
//     more health incident raises the lower-is-better
//     `health.incidents` total; a newly violated objective raises
//     `slo.violated`, both the total and its {objective, kind, tenant}
//     series; a falling attainment, or a falling observed admission rate,
//     regresses through the name's higher-is-better token. An incident that
//     moved lane or rule leaves a removed series.
//
//  2. A verdict: regression iff any series regressed or disappeared. Config
//     changes and artifact-coverage differences are reported but
//     informational — comparing an EA run against an ED run is the point,
//     not an error.
//
// Determinism contract: same inputs => byte-identical multihit.diff.v1
// (series sorted by name, derived quantities recomputed from stored doubles
// at render time). The report is written, never read back: nothing parses
// multihit.diff.v1.

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
/// mismatches, and ill-shaped or repeated metrics entries (naming
/// `<role>: <path>`).
class DiffError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- series deltas ---------------------------------------------------------

enum class DeltaClass {
  kIdentical,  ///< bit-equal on both sides
  kImproved,   ///< differs in the better direction for this series
  kRegressed,  ///< differs in the worse direction
  kAdded,      ///< present only in run B
  kRemoved,    ///< present only in run A
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
};

/// True when smaller values of `series` are better (seconds, bytes, stalls,
/// rejections, violations...). Higher-is-better names (attainment,
/// occupancy, throughput, admission, ...) return false; the label suffix
/// counts, except on a violation count. The heuristic only picks the
/// improved/regressed label: a higher-is-better series that moves down is
/// kRegressed, and so fails the gate.
bool lower_is_better(std::string_view series);

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
/// snapshot under role "analysis". A bare metrics snapshot loads as a
/// single-artifact run under role "metrics". Throws DiffError on
/// unreadable files, unknown schemas, schema/inventory mismatches, digest
/// mismatches, and traces that do not analyse.
RunInput load_run(const std::string& path);

// --- the report ------------------------------------------------------------

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
  std::uint32_t improved = 0;
  std::uint32_t regressed = 0;
  std::uint32_t added = 0;
  std::uint32_t removed = 0;
};

struct DiffReport {
  RunSummary run_a, run_b;
  /// Config keys whose values differ (or exist on one side only); values
  /// are ("" when absent). Sorted by key. Informational.
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>> config_changes;
  std::vector<ArtifactDelta> artifacts;
  DiffCounts counts;
  std::vector<SeriesDelta> series;  ///< non-identical only, sorted by name
  std::string summary;  ///< one human sentence, embedded verbatim in the doc
};

/// True when the report's verdict is "regressed" (obstool diff exits 1).
bool diff_regression(const DiffReport& report) noexcept;

/// Compares two loaded runs. Pure and deterministic.
DiffReport diff_runs(const RunInput& a, const RunInput& b);

/// Renders the multihit.diff.v1 document (stable field order; identical
/// reports produce byte-identical documents).
JsonValue diff_report_json(const DiffReport& report);

/// Human-readable rendering; `summary_only` stops after the verdict line.
std::string diff_text(const DiffReport& report, bool summary_only = false);

}  // namespace multihit::obs
