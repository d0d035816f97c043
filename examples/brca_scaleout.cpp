// BRCA scale-out: the paper's headline experiment end-to-end.
//
//   $ ./examples/brca_scaleout [nodes] [--scheduler ea|ed|mem]
//                              [--crash R@I[:F]] [--straggle R@I:F]
//                              [--drop R@I:N] [--abort I] [--checkpoint N]
//                              [--host-threads N] [--host-profile-out FILE]
//                              [--trace-out FILE] [--metrics-out FILE]
//                              [--report-out FILE] [--profile-out FILE]
//                              [--health-out FILE] [--truth-out FILE]
//                              [--manifest-out FILE] [--artifacts-dir DIR]
//                              [--log-level LEVEL]
//
// `--scheduler` picks the λ partitioner (default ea = equi-area; ed =
// equi-distance, mem = memory-aware) — selections are identical under all
// three, only the modeled schedule changes, which makes an ea-vs-ed pair
// the canonical `multihit-obstool diff` regression-triage exercise.
//
// `--artifacts-dir DIR` is the one-flag observability bundle: every
// artifact above that was not explicitly routed elsewhere is written under
// DIR with its standard name (run.trace.json, run.metrics.json,
// run.analysis.json, run.profile.json, run.health.json, plus
// run.truth.json when faults are injected and run.hostprof.json when
// --host-threads is on), and a multihit.run.v1 manifest (DIR/manifest.json,
// or --manifest-out) inventories the run configuration plus every emitted
// file with a content digest — two such directories are diffable with
// `multihit-obstool diff A/manifest.json B/manifest.json`. `--manifest-out`
// also works without --artifacts-dir, inventorying whatever --*-out
// artifacts were requested.
//
// `--host-threads N` additionally runs the full greedy cover as a host-side
// multithreaded sweep on real silicon (src/core/hostsweep.hpp): N worker
// threads pull λ chunks off a lock-free queue and run the same 3x1
// enumeration kernels through the runtime-dispatched bitops backend
// (MULTIHIT_BITOPS=scalar|avx2|auto). Selections must be bit-identical to
// both the serial reference and the simulated cluster; the measured
// combinations/sec is real wall clock, not model. The sweep derives its
// chunk from the space: one worker takes the whole λ space, N workers about
// four block-aligned chunks each. `--host-profile-out FILE` attaches the
// host profiler and writes its multihit.hostprof.v1 report to FILE.
//
// Observability: `--trace-out run.trace.json` writes a Chrome trace-event
// file of the functional run (open at https://ui.perfetto.dev — one lane per
// MPI rank plus engine/scheduler lanes, message-flow arrows between ranks,
// and per-rank occupancy/DRAM-throughput counter tracks),
// `--metrics-out run.metrics.json` writes the metrics-registry snapshot,
// `--report-out run.report.json` runs the trace analytics engine in-process
// and writes the multihit.analysis.v1 report (critical path, per-phase
// imbalance, comm overhead — same engine as `multihit-obstool analyze`), and
// `--profile-out run.profile.json` enables the per-launch kernel profiler
// and writes the multihit.profile.v1 artifact (read it with
// `multihit-obstool profile`). `--profile-out` requires instrumentation:
// pass it together with at least one of the other three output flags.
// `--health-out run.health.json` replays the run's trace through the health
// monitor (src/obs/monitor.hpp) and writes the multihit.health.v1 incident
// report — the same document `multihit-obstool monitor` produces offline —
// and `--truth-out run.truth.json` exports the injected-fault ground truth
// (multihit.truth.v1) the monitor's detectors can be scored against.
// All are deterministic: timestamps are simulated seconds, so identical runs
// produce byte-identical files.
//
// Part 1 runs the *functional* distributed pipeline (equi-area schedule ->
// per-GPU maxF + parallelReduceMax -> node merge -> MPI reduce) on a
// BRCA-like functional-scale dataset across the requested number of
// simulated Summit nodes (default 4), verifying it selects exactly the
// serial engine's combinations.
//
// Fault flags inject failures into the run (repeatable): `--crash 1@0` kills
// rank 1 mid-compute in iteration 0 (optional :F = fraction of its compute
// finished before dying), `--straggle 2@1:4` slows rank 2 by 4x from
// iteration 1, `--drop 3@0:2` loses two of rank 3's tree messages in
// iteration 0, and `--checkpoint 2` snapshots every 2 iterations (enables
// kJobAbort-style recovery accounting). Whatever is injected, the selected
// combinations must remain IDENTICAL to the serial reference — faults only
// stretch the modeled clock.
//
// Part 2 prices the same pipeline at full paper scale (G = 19411, 911 tumor
// samples) on 100-1000 nodes with the analytic machine model — the Fig. 4(a)
// strong-scaling curve.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bitmat/bitops.hpp"
#include "cluster/distributed.hpp"
#include "cluster/scaling.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "data/registry.hpp"
#include "fault/injector.hpp"
#include "obs/analyze.hpp"
#include "obs/hostprof.hpp"
#include "obs/monitor.hpp"
#include "obs/recorder.hpp"
#include "obs/runinfo.hpp"
#include "obs/schema.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: brca_scaleout [nodes] [--scheduler ea|ed|mem]\n"
               "                     [--crash R@I[:F]] [--straggle R@I:F]\n"
               "                     [--drop R@I:N] [--abort I] [--checkpoint N]\n"
               "                     [--host-threads N] [--host-profile-out FILE]\n"
               "                     [--trace-out FILE] [--metrics-out FILE]\n"
               "                     [--report-out FILE] [--profile-out FILE]\n"
               "                     [--health-out FILE] [--truth-out FILE]\n"
               "                     [--manifest-out FILE] [--artifacts-dir DIR]\n"
               "                     [--log-level LEVEL]\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace multihit;
  std::uint32_t nodes = 4;
  DistributedOptions options;  // 4-hit, 3x1, EA, both prefetches, splicing
  std::uint32_t host_threads = 0;  // 0 = skip the host-sweep part
  std::string host_profile_out;
  std::string trace_out, metrics_out, report_out, profile_out, health_out, truth_out;
  std::string manifest_out, artifacts_dir;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    unsigned rank = 0, iter = 0, count = 0;
    double value = 0.0;
    if (arg == "--crash") {
      const char* s = next();
      value = 0.5;
      if (std::sscanf(s, "%u@%u:%lf", &rank, &iter, &value) < 2) usage();
      options.faults.events.push_back(
          {FaultKind::kRankCrash, rank, iter, value, 1});
    } else if (arg == "--straggle") {
      if (std::sscanf(next(), "%u@%u:%lf", &rank, &iter, &value) != 3) usage();
      options.faults.events.push_back({FaultKind::kStraggler, rank, iter, value, 2});
    } else if (arg == "--drop") {
      if (std::sscanf(next(), "%u@%u:%u", &rank, &iter, &count) != 3) usage();
      options.faults.events.push_back({FaultKind::kMessageDrop, rank, iter, 0.0, count});
    } else if (arg == "--abort") {
      if (std::sscanf(next(), "%u", &iter) != 1) usage();
      options.faults.events.push_back({FaultKind::kJobAbort, 0, iter, 0.0, 1});
    } else if (arg == "--checkpoint") {
      options.checkpoint_every = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--host-threads") {
      host_threads = static_cast<std::uint32_t>(std::atoi(next()));
      if (host_threads == 0) usage();
    } else if (arg == "--host-profile-out") {
      host_profile_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--report-out") {
      report_out = next();
    } else if (arg == "--profile-out") {
      profile_out = next();
    } else if (arg == "--health-out") {
      health_out = next();
    } else if (arg == "--truth-out") {
      truth_out = next();
    } else if (arg == "--manifest-out") {
      manifest_out = next();
    } else if (arg == "--artifacts-dir") {
      artifacts_dir = next();
    } else if (arg == "--scheduler") {
      const std::string name = next();
      if (name == "ea") {
        options.scheduler = SchedulerKind::kEquiArea;
      } else if (name == "ed") {
        options.scheduler = SchedulerKind::kEquiDistance;
      } else if (name == "mem") {
        options.scheduler = SchedulerKind::kMemoryAware;
      } else {
        usage();
      }
    } else if (arg == "--log-level") {
      const char* name = next();
      const auto level = log::parse_level(name);
      if (!level) {
        std::cerr << "unknown --log-level '" << name << "' (expected one of: "
                  << log::level_names() << ")\n";
        return 1;
      }
      log::set_level(*level);
    } else if (arg[0] != '-') {
      nodes = static_cast<std::uint32_t>(std::atoi(arg.c_str()));
    } else {
      usage();
    }
  }
  if (nodes == 0 || nodes > 1024) {
    std::cerr << "nodes must be in [1, 1024]\n";
    return 1;
  }
  if (!host_profile_out.empty() && host_threads == 0) {
    std::cerr << "--host-profile-out requires --host-threads (it profiles the host sweep)\n";
    return 1;
  }
  if (!artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(artifacts_dir, ec);
    if (ec) {
      std::cerr << "error: cannot create --artifacts-dir " << artifacts_dir << ": "
                << ec.message() << "\n";
      return 1;
    }
    const auto standard = [&artifacts_dir](const char* name) {
      return (std::filesystem::path(artifacts_dir) / name).string();
    };
    if (trace_out.empty()) trace_out = standard("run.trace.json");
    if (metrics_out.empty()) metrics_out = standard("run.metrics.json");
    if (report_out.empty()) report_out = standard("run.analysis.json");
    if (profile_out.empty()) profile_out = standard("run.profile.json");
    if (health_out.empty()) health_out = standard("run.health.json");
    // Ground truth only means something with injected faults, and the host
    // profile only exists when the host sweep runs.
    if (truth_out.empty() && !options.faults.empty()) truth_out = standard("run.truth.json");
    if (host_profile_out.empty() && host_threads > 0) {
      host_profile_out = standard("run.hostprof.json");
    }
    if (manifest_out.empty()) manifest_out = standard("manifest.json");
  }

  // A BRCA-shaped 4-hit downscale: the registry's BRCA entry is 2-hit (as
  // the paper estimates), so the scale-out demo plants 4-hit combinations at
  // BRCA-like sample counts instead.
  SyntheticSpec spec;
  spec.genes = 90;
  spec.tumor_samples = 120;
  spec.normal_samples = 80;
  spec.hits = 4;
  spec.num_combinations = 5;
  spec.background_rate = 0.012;
  spec.seed = 911;
  Dataset data = generate_dataset(spec);
  data.name = "BRCA-4hit-downscale";

  std::cout << "Part 1 — functional distributed run: " << data.name << " (G="
            << data.genes() << "), " << nodes << " nodes (" << nodes * 6
            << " simulated V100s), 4-hit.\n";
  if (!options.faults.empty()) {
    std::cout << "  fault plan: " << describe(options.faults) << "\n";
  }

  SummitConfig config;
  config.nodes = nodes;
  const ClusterRunner runner(config);
  obs::Recorder recorder;
  if (!trace_out.empty() || !metrics_out.empty() || !report_out.empty() ||
      !health_out.empty()) {
    options.recorder = &recorder;
  }
  if (!profile_out.empty()) {
    // The kernel profiler piggybacks on the recorder seam: without at least
    // one instrumented output there is no recorder attached to the run, so
    // the profile would silently come out empty. Reject instead.
    if (!options.recorder) {
      std::cerr << "error: --profile-out requires instrumentation; pass at least one of "
                   "--trace-out, --metrics-out, or --report-out\n";
      return 1;
    }
    recorder.profile.enable();
  }
  ClusterRunResult distributed;
  try {
    distributed = runner.run(data, options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!trace_out.empty()) {
    if (!recorder.write_trace(trace_out)) {
      std::cerr << "error: cannot write trace to " << trace_out << "\n";
      return 1;
    }
    std::cout << "  trace written to " << trace_out << " ("
              << recorder.trace.size() << " events; open at https://ui.perfetto.dev)\n";
  }
  if (!metrics_out.empty()) {
    if (!recorder.write_metrics(metrics_out)) {
      std::cerr << "error: cannot write metrics to " << metrics_out << "\n";
      return 1;
    }
    std::cout << "  metrics written to " << metrics_out << " ("
              << recorder.metrics.series_count() << " series)\n";
  }
  if (!report_out.empty()) {
    const obs::TraceAnalysis analysis = obs::analyze_trace(recorder.trace);
    const obs::JsonValue metrics_doc = recorder.metrics.snapshot();
    std::ofstream out(report_out);
    if (out) out << obs::analysis_report(analysis, &metrics_doc).dump() << '\n';
    if (!out) {
      std::cerr << "error: cannot write analysis report to " << report_out << "\n";
      return 1;
    }
    std::cout << "  analysis report written to " << report_out << " (critical path "
              << analysis.critical_total << " s, comm overhead "
              << analysis.comm_fraction * 100.0 << "%)\n";
  }
  if (!profile_out.empty()) {
    if (!recorder.write_profile(profile_out)) {
      std::cerr << "error: cannot write kernel profile to " << profile_out << "\n";
      return 1;
    }
    std::cout << "  kernel profile written to " << profile_out << " ("
              << recorder.profile.size()
              << " launch records; read with multihit-obstool profile)\n";
  }
  if (!health_out.empty()) {
    // Monitor the trace exactly as the offline tool will see it — serialized
    // to Chrome format (microsecond timestamps) and parsed back — so the
    // in-process document is byte-identical to an obstool monitor replay.
    const obs::Tracer replay =
        obs::tracer_from_chrome(obs::JsonValue::parse(recorder.trace.to_chrome_json()));
    const obs::HealthReport health = obs::monitor_trace(replay);
    std::ofstream out(health_out);
    if (out) out << obs::health_report(health).dump() << '\n';
    if (!out) {
      std::cerr << "error: cannot write health report to " << health_out << "\n";
      return 1;
    }
    std::cout << "  health report written to " << health_out << " ("
              << health.incidents.size()
              << " incident(s); read with multihit-obstool monitor)\n";
  }
  if (!truth_out.empty()) {
    std::ofstream out(truth_out);
    if (out) out << obs::truth_json(truth_events(distributed.fault_events)).dump() << '\n';
    if (!out) {
      std::cerr << "error: cannot write fault ground truth to " << truth_out << "\n";
      return 1;
    }
    std::cout << "  fault ground truth written to " << truth_out << " ("
              << distributed.fault_events.size() << " event(s))\n";
  }

  EngineConfig serial_config;
  serial_config.hits = 4;
  const GreedyResult serial =
      run_greedy(data.tumor, data.normal, serial_config, make_serial_evaluator(4));

  const bool identical = distributed.greedy.combinations() == serial.combinations();
  std::cout << "  combinations selected: " << distributed.greedy.iterations.size()
            << " (serial reference: " << serial.iterations.size() << ") -> "
            << (identical ? "IDENTICAL" : "MISMATCH!") << "\n"
            << "  modeled wall time: " << distributed.total_time << " s ("
            << distributed.iterations.size() << " iterations + schedule "
            << distributed.schedule_time << " s + job overhead)\n";
  if (!distributed.fault_events.empty()) {
    std::cout << "  faults fired: " << distributed.fault_events.size() << " ("
              << distributed.ranks_lost << " rank(s) lost), recovery "
              << distributed.recovery_time << " s";
    if (distributed.checkpoints_taken > 0) {
      std::cout << ", " << distributed.checkpoints_taken << " checkpoint(s) in "
                << distributed.checkpoint_time << " s";
    }
    std::cout << "\n";
    for (const FaultRecord& rec : distributed.fault_events) {
      std::cout << "    " << fault_kind_name(rec.kind) << " rank " << rec.rank
                << " @ iteration " << rec.iteration << " (t=" << rec.sim_time
                << " s, cost " << rec.cost << " s)\n";
    }
  }
  if (!identical) return 1;

  HostSweepTelemetry total;  // the host sweep's accounting (chunk_size 0: not run)
  if (host_threads > 0) {
    HostSweepOptions sweep;
    sweep.hits = 4;
    sweep.threads = host_threads;
    obs::HostProfiler host_profiler;
    if (!host_profile_out.empty()) sweep.profiler = &host_profiler;
    std::cout << "\nPart 1b — host-threaded sweep (real silicon): " << host_threads
              << " thread(s), bitops backend " << backend_name(active_backend()) << ".\n";
    const Evaluator sweep_eval = make_host_sweep_evaluator(sweep, &total);
    const auto t0 = std::chrono::steady_clock::now();
    const GreedyResult swept = run_greedy(data.tumor, data.normal, serial_config, sweep_eval);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const bool sweep_identical = swept.combinations() == serial.combinations() &&
                                 swept.combinations() == distributed.greedy.combinations();
    std::cout << "  combinations selected: " << swept.iterations.size()
              << " -> " << (sweep_identical ? "IDENTICAL" : "MISMATCH!")
              << " (vs serial and distributed)\n"
              << "  " << total.counts.combinations << " combinations in " << seconds
              << " s wall = " << static_cast<double>(total.counts.combinations) / seconds
              << " combos/sec (" << total.chunks << " chunks of " << total.chunk_size
              << " λ across " << total.threads << " worker(s))\n";
    if (!sweep_identical) return 1;
    if (!host_profile_out.empty()) {
      const obs::HostProfile& profile = host_profiler.profile();
      std::ofstream out(host_profile_out);
      if (out) out << obs::hostprof_report(profile).dump() << '\n';
      if (!out) {
        std::cerr << "error: cannot write host profile to " << host_profile_out << "\n";
        return 1;
      }
      std::cout << "  host profile written to " << host_profile_out << " ("
                << profile.sweeps.size() << " sweep(s), "
                << profile.total_calls.total()
                << " bitops call(s); read with multihit-obstool hostprof)\n";
    }
  }

  if (!manifest_out.empty()) {
    obs::RunManifest manifest;
    manifest.driver = "brca_scaleout";
    obs::set_config(manifest, "nodes", std::to_string(nodes));
    obs::set_config(manifest, "gpus", std::to_string(nodes * 6));
    obs::set_config(manifest, "hits", "4");
    obs::set_config(manifest, "scheme", "3x1");
    obs::set_config(manifest, "scheduler", scheduler_name(options.scheduler));
    obs::set_config(manifest, "seed", std::to_string(spec.seed));
    obs::set_config(manifest, "dataset", data.name);
    obs::set_config(manifest, "bitops_backend", backend_name(active_backend()));
    obs::set_config(manifest, "host_threads", std::to_string(host_threads));
    obs::set_config(manifest, "host_chunk", std::to_string(total.chunk_size));
    obs::set_config(manifest, "checkpoint_every",
                    std::to_string(options.checkpoint_every));
    const std::string faults =
        options.faults.empty() ? std::string("none") : describe(options.faults);
    obs::set_config(manifest, "faults", faults);
    obs::set_config(manifest, "fault_plan_digest", obs::content_digest(faults));
    try {
      // Digest from the path we actually wrote, then record the
      // manifest-relative form so --artifacts-dir directories relocate.
      const auto add = [&](const char* name, std::string_view schema,
                           const std::string& path) {
        if (path.empty()) return;
        obs::add_artifact_from_file(manifest, name, std::string(schema), path);
        for (obs::RunArtifact& artifact : manifest.artifacts) {
          if (artifact.name == name) {
            artifact.path = obs::manifest_artifact_path(path, manifest_out);
          }
        }
      };
      add("trace", obs::kChromeTraceTag, trace_out);
      add("metrics", obs::kMetricsSchema, metrics_out);
      add("analysis", obs::kAnalysisSchema, report_out);
      add("profile", obs::kProfileSchema, profile_out);
      add("health", obs::kHealthSchema, health_out);
      add("truth", obs::kTruthSchema, truth_out);
      add("hostprof", obs::kHostprofSchema, host_profile_out);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    if (!obs::write_manifest(manifest, manifest_out)) {
      std::cerr << "error: cannot write run manifest to " << manifest_out << "\n";
      return 1;
    }
    std::cout << "  run manifest written to " << manifest_out << " ("
              << manifest.artifacts.size()
              << " artifact(s); diff runs with multihit-obstool diff)\n";
  }

  std::cout << "\nPart 2 — paper-scale strong scaling (analytic model, BRCA G=19411):\n";
  ModelInputs inputs;  // paper-scale BRCA defaults
  const std::vector<std::uint32_t> fleet{100, 200, 400, 600, 800, 1000};
  const auto points = strong_scaling(SummitConfig{}, inputs, fleet);
  Table table({"nodes", "GPUs", "modeled time (s)", "efficiency vs 100"});
  for (const auto& p : points) {
    table.add_row({static_cast<long long>(p.nodes), static_cast<long long>(p.nodes * 6),
                   p.time, p.efficiency});
  }
  table.print(std::cout);
  std::cout << "[paper: 84.18% at 1000 nodes, 90.14% average for 200-1000]\n";
  return 0;
}
