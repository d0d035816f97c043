// Regression-engine self-check: BENCH_diff.json boolean gate series.
//
// The cross-run diff engine (src/obs/diff) is itself a CI gate, so its own
// load-bearing invariants get a BENCH record that scripts/bench_compare.py
// --strict pins against bench/baselines/BENCH_diff.json. Everything here is
// deterministic — in-process RunInputs holding hand-built analysis
// snapshots (the analysis.* series obs::record_analysis writes), no wall
// clock — so the committed baseline is exact:
//
//   self_identical        diffing a run against itself yields zero
//                         non-identical series and a clean verdict
//   regression_detected   a planted makespan regression flips the verdict
//   attribution_named     the summary attributes that regression to the
//                         cell that moved: "100% attributed to compute on
//                         rank 0"
//
// All three are committed as 1; any drop to 0 is a real engine break.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace {

using multihit::obs::DiffReport;
using multihit::obs::JsonValue;
using multihit::obs::RunInput;

/// A toy analysis snapshot: compute on rank 0 then reduce on rank 1, with
/// the compute cell scaled by `stretch` (1.0 = the baseline run).
JsonValue analysis_doc(double stretch) {
  const double compute = 6.0 * stretch;
  multihit::obs::MetricsRegistry metrics;
  metrics.gauge("analysis.makespan_seconds").set(compute + 4.0);
  metrics.gauge("analysis.critical_seconds", {{"lane", "0"}, {"phase", "compute"}})
      .set(compute);
  metrics.gauge("analysis.critical_seconds", {{"lane", "1"}, {"phase", "mpi_reduce"}})
      .set(4.0);
  return metrics.snapshot();
}

RunInput make_run(const char* label, double stretch) {
  RunInput run;
  run.label = label;
  multihit::obs::add_doc(run, "analysis", analysis_doc(stretch));
  return run;
}

bool self_identical() {
  const DiffReport report = multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.0));
  return !multihit::obs::diff_regression(report) && report.series.empty() &&
         report.counts.identical == report.counts.compared;
}

bool regression_detected() {
  const DiffReport report = multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.25));
  return multihit::obs::diff_regression(report);
}

bool attribution_named() {
  const DiffReport report = multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.25));
  return report.summary.find("100% attributed to compute on rank 0") != std::string::npos;
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, bool>> checks = {
      {"self_identical", self_identical()},
      {"regression_detected", regression_detected()},
      {"attribution_named", attribution_named()},
  };

  multihit::Table table({"check", "pass"});
  multihit::obs::BenchReporter reporter("diff");
  bool all = true;
  for (const auto& [name, pass] : checks) {
    table.add_row({std::string(name), static_cast<long long>(pass ? 1 : 0)});
    reporter.series(name, pass ? 1.0 : 0.0, "bool");
    all = all && pass;
  }
  std::cout << "bench_diff: regression-engine invariants\n";
  table.print(std::cout);
  reporter.write();
  std::cout << "bench record: " << reporter.path() << "\n";
  return all ? 0 : 1;
}
