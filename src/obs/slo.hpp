#pragma once
// Per-tenant serve SLOs on the simulated clock.
//
// The job service (src/serve) turned the reproduction into a multi-tenant
// system; this header is how that system gets *judged*: per tenant, per
// objective, the way a production fleet is. Three objective kinds, declared
// in a line grammar:
//
//   slo TENANT latency pP below SECONDS
//   slo TENANT admission above FRACTION
//   slo TENANT budget FRACTION window SECONDS [fast SECONDS]
//
// ('#' starts a comment, words split on blanks, TENANT may be '*' for
// "every tenant seen in the input".) `latency` bounds the exact pP latency
// percentile over completed jobs; `admission` lower-bounds the fraction of
// analyze requests not shed by admission control; `budget` is an error
// budget — the allowed fraction of *bad* requests (rejected, or completed
// above the tenant's tightest latency target) — tracked over rolling
// simulated-clock windows. The evaluator reports, per budget objective, the
// total budget consumed plus the worst *burn rate* (bad fraction over a
// trailing window, divided by the budget) over two windows: the slow window
// SECONDS and a fast window (default SECONDS/12) — the SRE multi-window
// pattern, on the simulated clock.
//
// The evaluator consumes a neutral SloInput (one row per resolved analyze
// request) that one reader builds: slo_input_from_trace, over the `job`
// instants JobService::replay writes into a recorder's trace. multihit-serve
// runs it on its live trace, `obstool slo TRACE --spec FILE METRICS` on the
// saved --trace-out file read back through tracer_from_chrome. The instants
// carry their times as shortest round-trippable text, so both read the same
// doubles and the verdict record_slo writes into `multihit-serve
// --metrics-out` equals the offline replay's, series for series —
// scripts/ci.sh pins it.
//
// The monitor-side companions (queue-saturation / tenant-starvation /
// burn-rate / cache-thrash detectors over serve trace lanes) live in
// monitor.{hpp,cpp}; they share SloObjective so one --slo-spec file drives
// both the offline verdict and the online alerts.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace multihit::obs {

/// Raised on malformed SLO specs and ill-shaped serve job instants.
class SloError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class SloKind { kLatency, kAdmission, kBudget };

const char* slo_kind_name(SloKind kind) noexcept;

/// One declared objective (see the grammar above).
struct SloObjective {
  std::string tenant;       ///< tenant name, or "*" for every tenant
  SloKind kind = SloKind::kLatency;
  double percentile = 0.0;  ///< latency: the bounded percentile (e.g. 99)
  double target = 0.0;      ///< latency seconds / admission fraction / budget fraction
  double window = 0.0;      ///< budget: slow burn window (simulated s)
  double fast_window = 0.0; ///< budget: fast burn window (defaults to window/12)
};

/// Parses the SLO grammar; throws SloError naming the offending line.
std::vector<SloObjective> parse_slo(std::string_view text);

/// The tightest (minimum) latency target among objectives applying to
/// `tenant` (exact match or '*'); infinity when none — then only rejections
/// count as bad events.
double latency_target(const std::vector<SloObjective>& spec, std::string_view tenant);

// --- label-suffixed series names -------------------------------------------
// Trace counter series are keyed (name, lane) with no label concept, so the
// serve layer embeds tenant labels in the name itself: "serve.wait_age" with
// {tenant=gold} becomes "serve.wait_age{tenant=gold}" (keys sorted, comma
// separated). The monitor's serve detectors split names back apart with
// split_series_labels.

using SeriesLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonical labeled series name: base + "{k=v,...}" with keys sorted.
/// No-op (returns base) when labels is empty.
std::string series_with_labels(std::string_view base, SeriesLabels labels);

/// Splits a (possibly) label-suffixed series name. Strict: a name containing
/// '{' must be well-formed `base{key=value[,key=value]*}` with nonempty
/// base, keys, and values — anything else throws SloError.
std::pair<std::string, SeriesLabels> split_series_labels(std::string_view name);

/// The "tenant" label value of a labeled series name ("" when absent).
std::string series_tenant(std::string_view name);

// --- evaluation ------------------------------------------------------------

/// One resolved analyze request, as the evaluator sees it.
struct SloJob {
  std::string tenant;
  double arrival = 0.0;
  double finish = -1.0;   ///< completion time; < 0 for rejected requests
  double latency = 0.0;   ///< finish - arrival (completed only)
  bool rejected = false;
  bool cache_hit = false;
};

struct SloInput {
  std::vector<SloJob> jobs;  ///< in admission order
};

/// Builds an SloInput from the `job` instants (category `serve`) of a serve
/// trace, one row per analyze request in `id` order, latency = finish −
/// arrival for completed jobs. Throws SloError naming the event on a missing
/// or malformed arg (id, tenant, outcome, cache_hit, arrival, finish), an
/// outcome other than completed, rejected_queue_full or rejected_quota, or a
/// time that is not finite; and when the ids are not 0..n-1 each once,
/// naming the repeated event or the missing id. A trace without job
/// instants is refused too: it was not written by a served run.
SloInput slo_input_from_trace(const Tracer& trace);

/// One objective's verdict for one tenant.
struct SloObjectiveResult {
  SloObjective objective;      ///< tenant materialized ('*' expanded)
  std::uint32_t index = 0;     ///< the objective's declaration index in the spec
  double observed = 0.0;       ///< pP latency / admission rate / budget consumed
  double attainment = 1.0;     ///< fraction of events meeting the target
  double max_fast_burn = 0.0;  ///< budget only: worst fast-window burn rate
  double max_slow_burn = 0.0;  ///< budget only: worst slow-window burn rate
  bool violated = false;
};

struct SloTenantReport {
  std::string tenant;
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;
  std::uint32_t cache_hits = 0;
  std::uint32_t bad = 0;  ///< rejected or above the tenant's latency target
  std::vector<SloObjectiveResult> objectives;  ///< in spec declaration order
};

struct SloReport {
  std::vector<SloTenantReport> tenants;    ///< sorted by tenant name
  std::uint32_t objectives = 0;            ///< evaluated (tenant, objective) pairs
  std::uint32_t violated = 0;
  double worst_burn = 0.0;                 ///< max burn rate over all budget results
  double worst_p99_attainment = 1.0;       ///< min attainment among p99 latency objectives
};

/// Evaluates `spec` over `input`. Pure and deterministic: same input + spec
/// => identical report. '*' objectives expand over every tenant seen in the
/// input (plus explicitly named tenants), in sorted order.
SloReport evaluate_slo(const SloInput& input, const std::vector<SloObjective>& spec);

/// Adds the report's verdict to `metrics`: counter `slo.objectives`, an
/// unlabeled counter `slo.violated` (the total; registered even when it is
/// 0), and per evaluated (tenant, objective), labeled {objective=<declaration
/// index>, kind, tenant}: gauges `slo.observed` and `slo.attainment`, a 0/1
/// counter `slo.violated`, and for budget objectives gauges `slo.fast_burn`
/// and `slo.slow_burn`. Counters add, so record one report per registry.
void record_slo(const SloReport& report, MetricsRegistry& metrics);

/// Human-readable rendering; `summary_only` stops after the totals.
std::string slo_text(const SloReport& report, bool summary_only = false);

}  // namespace multihit::obs
