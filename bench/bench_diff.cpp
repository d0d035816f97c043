// Regression-engine self-check: BENCH_diff.json boolean gate series.
//
// The cross-run diff engine (src/obs/diff) is itself a CI gate, so its own
// load-bearing invariants get a BENCH record that scripts/bench_compare.py
// --strict pins against bench/baselines/BENCH_diff.json. Everything here is
// deterministic — in-process RunInputs built from hand-rolled documents, no
// wall clock — so the committed baseline is exact:
//
//   self_identical        diffing a run against itself yields zero
//                         non-identical series and a clean verdict
//   regression_detected   a planted makespan regression flips the verdict
//   tolerance_covers      the same drift under a covering `tol` rule is
//                         within-tolerance, not a regression
//   attribution_exact     phase×lane cell deltas + residual == makespan
//                         delta, bit-exact
//
// All four are committed as 1; any drop to 0 is a real engine break.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/schema.hpp"
#include "util/table.hpp"

namespace {

using multihit::obs::DiffOptions;
using multihit::obs::DiffReport;
using multihit::obs::JsonValue;
using multihit::obs::RunInput;

JsonValue segment(const char* phase, std::uint32_t lane, double begin, double end) {
  JsonValue seg = JsonValue::object();
  seg.set("lane", static_cast<double>(lane));
  seg.set("phase", phase);
  seg.set("begin_seconds", begin);
  seg.set("end_seconds", end);
  return seg;
}

/// A toy analysis document: compute on rank 0 then reduce on rank 1, with
/// the compute span scaled by `stretch` (1.0 = the baseline run).
JsonValue analysis_doc(double stretch) {
  const double compute_end = 6.0 * stretch;
  const double makespan = compute_end + 4.0;
  JsonValue doc = JsonValue::object();
  doc.set("schema", std::string(multihit::obs::kAnalysisSchema));
  doc.set("makespan_seconds", makespan);
  JsonValue critical = JsonValue::object();
  critical.set("total_seconds", makespan);
  JsonValue segs = JsonValue::array();
  segs.push_back(segment("compute", 0, 0.0, compute_end));
  segs.push_back(segment("mpi_reduce", 1, compute_end, makespan));
  critical.set("segments", std::move(segs));
  doc.set("critical_path", std::move(critical));
  return doc;
}

RunInput make_run(const char* label, double stretch) {
  RunInput run;
  run.label = label;
  multihit::obs::add_doc(run, "analysis", analysis_doc(stretch));
  return run;
}

bool self_identical() {
  const DiffReport report =
      multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.0), DiffOptions{});
  return !multihit::obs::diff_regression(report) && report.series.empty() &&
         report.counts.identical == report.counts.compared;
}

bool regression_detected() {
  const DiffReport report =
      multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.25), DiffOptions{});
  return multihit::obs::diff_regression(report);
}

bool tolerance_covers() {
  DiffOptions options;
  options.tolerances = multihit::obs::parse_tolerances("tol analysis.* rel 0.5\n");
  const DiffReport report =
      multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.25), options);
  return !multihit::obs::diff_regression(report) && report.counts.within_tolerance > 0;
}

bool attribution_exact() {
  const DiffReport report =
      multihit::obs::diff_runs(make_run("a", 1.0), make_run("b", 1.25), DiffOptions{});
  const JsonValue doc = multihit::obs::diff_report_json(report);
  const JsonValue* critical = doc.find("critical_path");
  if (!critical) return false;
  double cell_sum = 0.0;
  for (const JsonValue& cell : critical->find("cells")->as_array()) {
    cell_sum += cell.find("delta")->as_number();
  }
  return cell_sum + critical->find("residual")->as_number() ==
         critical->find("delta")->as_number();
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, bool>> checks = {
      {"self_identical", self_identical()},
      {"regression_detected", regression_detected()},
      {"tolerance_covers", tolerance_covers()},
      {"attribution_exact", attribution_exact()},
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
