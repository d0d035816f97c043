// multihit-obstool: offline analysis of saved observability artifacts.
//
//   $ multihit-obstool analyze run.trace.json
//                      [--report-out FILE] [--folded-out FILE] [--quiet]
//   $ multihit-obstool monitor run.trace.json [run.metrics.json]
//                      [--sample-every S] [--window-samples N] [--slo-spec FILE]
//                      [--truth-window S] [--annotate-out FILE]
//                      [--summary] [--quiet]
//   $ multihit-obstool slo TRACE.json --spec FILE [METRICS.json]
//                      [--summary] [--quiet]
//   $ multihit-obstool diff A B [--report-out FILE] [--summary] [--quiet]
//
// `analyze` loads a --trace-out Chrome trace, runs the trace analytics
// engine (critical path, per-phase imbalance, comm overhead — see
// src/obs/analyze.hpp), and prints the human-readable summary.
// `--report-out` writes the analysis as a multihit.metrics.v1 snapshot of
// analysis.* gauges (obs::record_analysis; a run writes none of its own),
// `--folded-out` writes collapsed flamegraph stacks
// (flamegraph.pl / speedscope format). A host trace (brca_scaleout
// --host-profile-out) reads the same way: its worker lanes are the rank
// lanes, so the phase table gives each of claim / evaluate / tail_idle with
// its straggler worker, and the folded stacks read "worker N;evaluate".
//
// `monitor` replays the trace through the health monitor (sampler and
// built-in failure-mode detectors — see src/obs/monitor.hpp) and prints the
// incident log (`--summary` stops after the per-rule counts).
// `--sample-every` overrides the boundary cadence (seconds > 0) and
// `--window-samples` the retained history (boundaries, at least 2). With a
// metrics snapshot the incidents are cross-checked against its counters,
// and any `health.incidents` series in it (brca_scaleout records them) must
// equal what this replay records (mismatch exits 1). Whenever the trace
// holds the fault injector's "fault.<kind>" instants — the run's ground
// truth — the incidents are scored against them within `--truth-window`
// seconds (> 0), exiting 1 unless recall is total and no detector
// false-fired.
// `--annotate-out` writes a copy of the trace with one "health.<rule>"
// instant per incident for the Chrome/Perfetto viewer. `--slo-spec` loads an
// SLO spec whose budget objectives arm the serve burn detectors (serve-scale
// windows usually need `--sample-every 0.5 --window-samples 256` or so —
// the budget window must fit the retained history).
//
// `slo` reads a multihit-serve --trace-out file's `job` instants back into
// the per-tenant SLO evaluator (obs::slo_input_from_trace, src/obs/slo.hpp),
// evaluates them against a --spec objective file and prints the
// per-objective verdicts. With a metrics snapshot (multihit-serve
// --metrics-out of the same run and spec), its `slo.*` series must equal
// what this replay records (obs::record_slo), compared entry by entry; the
// first entry that differs is named and exits 1 — the in-process-vs-replay
// determinism gate in scripts/ci.sh. Any violated objective exits 1.
//
// `diff` is the cross-run regression engine (src/obs/diff.hpp): A and B are
// either multihit.run.v1 manifests (from brca_scaleout / multihit-serve
// --manifest-out or --artifacts-dir; every inventoried artifact is loaded
// and its content digest verified) or a pair of metrics snapshots (an
// `analyze --report-out` snapshot is one). The diff reads metrics only:
// every series in the shared snapshots is compared exactly and classified
// identical / improved / regressed / added / removed. The analysis (derived
// from a manifest's trace, or carried by a bare analysis snapshot) is series
// too: the summary reads the makespan change off `analysis.makespan_seconds`
// and attributes it to the `analysis.critical_seconds{lane, phase}` cell that
// moved most.
// A new health incident is a regressed `health.incidents` counter, a newly
// violated SLO objective a regressed `slo.violated` counter. `--report-out`
// writes the multihit.diff.v1 document, byte-identical across repeated
// invocations. A regression verdict (regressed or removed series) exits 1.
//
// All outputs are deterministic: processing the same files twice produces
// byte-identical artifacts, which scripts/ci.sh uses as the determinism
// gate.
//
// Exit status: 0 on success; 2 on a usage error (unknown subcommand, missing
// operand, bad flag — usage goes to stderr); 1 on runtime failures
// (unreadable/malformed/ill-shaped inputs, unwritable outputs, health or
// SLO crosscheck mismatches, imperfect scores against the fault instants).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/analyze.hpp"
#include "obs/diff.hpp"
#include "obs/monitor.hpp"
#include "parse_number.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: multihit-obstool analyze TRACE.json\n"
               "                        [--report-out FILE] [--folded-out FILE] [--quiet]\n"
               "       multihit-obstool monitor TRACE.json [METRICS.json]\n"
               "                        [--sample-every S] [--window-samples N] [--slo-spec FILE]\n"
               "                        [--truth-window S] [--annotate-out FILE]\n"
               "                        [--summary] [--quiet]\n"
               "       multihit-obstool slo TRACE.json --spec FILE [METRICS.json]\n"
               "                        [--summary] [--quiet]\n"
               "       multihit-obstool diff A B [--report-out FILE] [--summary] [--quiet]\n";
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

int run_analyze(int argc, char** argv) {
  using namespace multihit::obs;
  std::string trace_path, report_out, folded_out;
  bool quiet = false;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--report-out") {
      report_out = next();
    } else if (arg == "--folded-out") {
      folded_out = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      usage();
    }
  }
  if (trace_path.empty()) usage();

  try {
    const Tracer tracer = tracer_from_chrome(JsonValue::parse(read_file(trace_path)));
    const TraceAnalysis analysis = analyze_trace(tracer);
    MetricsRegistry report;
    record_analysis(analysis, report);

    if (!report_out.empty() && !write_file(report_out, report.to_json() + "\n")) {
      std::cerr << "error: cannot write report to " << report_out << "\n";
      return 1;
    }
    if (!folded_out.empty() && !write_file(folded_out, folded_stacks(tracer))) {
      std::cerr << "error: cannot write folded stacks to " << folded_out << "\n";
      return 1;
    }
    if (!quiet) std::cout << analysis_text(analysis);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_monitor(int argc, char** argv) {
  using namespace multihit::obs;
  std::string trace_path, metrics_path;
  std::string slo_path, annotate_out;
  MonitorOptions options;
  double truth_window = 0.25;
  bool summary = false, quiet = false;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--slo-spec") {
      slo_path = next();
    } else if (arg == "--sample-every") {
      const auto every = multihit::cli::parse_real("--sample-every", next(), 0.0, true);
      if (!every) usage();
      options.sample_every = *every;
    } else if (arg == "--window-samples") {
      const auto samples =
          multihit::cli::parse_number<std::uint32_t>("--window-samples", next(), 2);
      if (!samples) usage();
      options.window_samples = *samples;
    } else if (arg == "--truth-window") {
      const auto window = multihit::cli::parse_real("--truth-window", next(), 0.0, true);
      if (!window) usage();
      truth_window = *window;
    } else if (arg == "--annotate-out") {
      annotate_out = next();
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else if (metrics_path.empty()) {
      metrics_path = arg;
    } else {
      usage();
    }
  }
  if (trace_path.empty()) usage();

  try {
    Tracer tracer = tracer_from_chrome(JsonValue::parse(read_file(trace_path)));
    if (!slo_path.empty()) options.slo = parse_slo(read_file(slo_path));

    const HealthReport report = monitor_trace(tracer, options);
    const std::vector<TruthEvent> truth = truth_from_trace(tracer);

    if (!annotate_out.empty()) {
      annotate_trace(tracer, report);
      if (!write_file(annotate_out, tracer.to_chrome_json())) {
        std::cerr << "error: cannot write annotated trace to " << annotate_out << "\n";
        return 1;
      }
    }
    if (!quiet) std::cout << health_text(report, summary);

    if (!metrics_path.empty()) {
      const JsonValue metrics_doc = JsonValue::parse(read_file(metrics_path));
      const std::vector<std::string> mismatches = health_crosscheck(report, metrics_doc);
      if (!mismatches.empty()) {
        for (const std::string& mismatch : mismatches) {
          std::cerr << "health crosscheck mismatch: " << mismatch << "\n";
        }
        return 1;
      }
      if (!quiet) std::cout << "crosscheck: incidents agree with metrics counters\n";
    }

    if (!truth.empty()) {
      const HealthScore score = score_incidents(report, truth, truth_window);
      if (!quiet) std::cout << score_text(score);
      if (!score.perfect()) {
        std::cerr << "error: detectors scored imperfectly against ground truth\n";
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_slo(int argc, char** argv) {
  using namespace multihit::obs;
  std::string trace_path, spec_path, metrics_path;
  bool summary = false, quiet = false;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else if (metrics_path.empty()) {
      metrics_path = arg;
    } else {
      usage();
    }
  }
  if (trace_path.empty() || spec_path.empty()) usage();

  try {
    const std::vector<SloObjective> spec = parse_slo(read_file(spec_path));
    const Tracer tracer = tracer_from_chrome(JsonValue::parse(read_file(trace_path)));
    const SloReport report = evaluate_slo(slo_input_from_trace(tracer), spec);

    if (!quiet) std::cout << slo_text(report, summary);
    if (!metrics_path.empty()) {
      MetricsRegistry replayed;
      record_slo(report, replayed);
      const std::string mismatch = metrics_family_mismatch(
          JsonValue::parse(read_file(metrics_path)), replayed.snapshot(), "slo");
      if (!mismatch.empty()) {
        std::cerr << "slo crosscheck mismatch: " << mismatch << "\n";
        return 1;
      }
      if (!quiet) std::cout << "crosscheck: verdicts agree with metrics series\n";
    }
    if (report.violated > 0) {
      std::cerr << "error: " << report.violated << " of " << report.objectives
                << " objective(s) violated\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_diff(int argc, char** argv) {
  using namespace multihit::obs;
  std::string path_a, path_b, report_out;
  bool summary = false, quiet = false;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--report-out") {
      report_out = next();
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else if (path_a.empty()) {
      path_a = arg;
    } else if (path_b.empty()) {
      path_b = arg;
    } else {
      usage();
    }
  }
  if (path_a.empty() || path_b.empty()) usage();

  try {
    const RunInput run_a = load_run(path_a);
    const RunInput run_b = load_run(path_b);
    const DiffReport report = diff_runs(run_a, run_b);

    if (!report_out.empty() &&
        !write_file(report_out, diff_report_json(report).dump() + "\n")) {
      std::cerr << "error: cannot write diff report to " << report_out << "\n";
      return 1;
    }
    if (!quiet) std::cout << diff_text(report, summary);
    if (diff_regression(report)) {
      std::cerr << "error: regression: " << report.counts.regressed << " regressed, "
                << report.counts.removed << " removed series\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string command = argv[1];
  if (command == "analyze") return run_analyze(argc, argv);
  if (command == "monitor") return run_monitor(argc, argv);
  if (command == "slo") return run_slo(argc, argv);
  if (command == "diff") return run_diff(argc, argv);
  usage();
}
