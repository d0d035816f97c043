// BRCA scale-out: the paper's headline experiment end-to-end.
//
//   $ ./examples/brca_scaleout [nodes] [--scheduler ea|ed|mem]
//                              [--crash R@I[:F]] [--straggle R@I:F]
//                              [--drop R@I:N] [--abort I] [--checkpoint N]
//                              [--host-threads N] [--host-profile-out FILE]
//                              [--trace-out FILE] [--metrics-out FILE]
//                              [--manifest-out FILE] [--artifacts-dir DIR]
//                              [--log-level LEVEL]
//
// `--scheduler` picks the λ partitioner (default ea = equi-area; ed =
// equi-distance, mem = memory-aware) — selections are identical under all
// three, only the modeled schedule changes, which makes an ea-vs-ed pair
// the canonical `multihit-obstool diff` regression-triage exercise.
//
// `--artifacts-dir DIR` is the one-flag observability bundle: the trace and
// the metrics, unless explicitly routed elsewhere, are written under DIR
// with their standard names (run.trace.json, run.metrics.json), and a
// multihit.run.v1 manifest (DIR/manifest.json, or --manifest-out)
// inventories the run configuration plus every emitted file with a content
// digest — two such directories are diffable with `multihit-obstool diff
// A/manifest.json B/manifest.json`, which derives each run's critical-path
// analysis from its trace. `--manifest-out` also works without
// --artifacts-dir, inventorying whatever --*-out artifacts were requested.
//
// `--host-threads N` additionally runs the full greedy cover as a host-side
// multithreaded sweep on real silicon (src/core/hostsweep.hpp): N worker
// threads pull λ chunks off a lock-free queue and run the same 3x1
// enumeration kernels through the runtime-dispatched bitops backend
// (MULTIHIT_BITOPS=scalar|avx2|auto). Selections must be bit-identical to
// both the serial reference and the simulated cluster; the measured
// combinations/sec is real wall clock, not model. The sweep derives its
// chunk from the space: one worker takes the whole λ space, N workers about
// four block-aligned chunks each; N is at most 256. `--host-profile-out FILE`
// attaches the host profiler and writes its wall-clock Chrome trace to FILE
// (one lane per worker: claim, evaluate and tail_idle spans; read it with
// `multihit-obstool analyze`). The profiler's exact hostsweep.* counters
// (chunks, claims, candidates, combinations, bitops calls) go into the run's
// metrics, so --metrics-out and --artifacts-dir carry them.
//
// Observability: `--trace-out run.trace.json` writes a Chrome trace-event
// file of the functional run (open at https://ui.perfetto.dev — one lane per
// MPI rank plus engine/scheduler lanes, message-flow arrows between ranks,
// and per-rank occupancy/DRAM-throughput counter tracks),
// `--metrics-out run.metrics.json` writes the metrics-registry snapshot
// (among it the simulated kernel counters: gpu.* launches, DRAM and
// prefetch bytes, occupancy, placed seconds and the Fig. 6c
// gpu.stall_seconds{reason}). Everything else is a view of those two files:
// `multihit-obstool analyze run.trace.json --report-out F` writes the
// analysis (critical path, per-phase imbalance, comm overhead) as a metrics
// snapshot of analysis.* gauges, and the trace's "fault.<kind>" instants are
// the injected-fault ground truth. Whenever metrics are written, the run's
// trace is also replayed through the health monitor (src/obs/monitor.hpp)
// and its incidents land in the metrics as `health.incidents` counters — the
// same counters `multihit-obstool monitor TRACE METRICS` checks against its own
// replay, which it also scores against the trace's fault instants.
// All are deterministic: timestamps are simulated seconds, so identical runs
// produce byte-identical files. The host trace alone is wall clock.
//
// Part 1 runs the *functional* distributed pipeline (equi-area schedule ->
// per-GPU maxF + parallelReduceMax -> node merge -> MPI reduce) on a
// BRCA-like functional-scale dataset across the requested number of
// simulated Summit nodes (default 4), verifying it selects exactly the
// serial engine's combinations.
//
// Fault flags inject failures into the run (repeatable): `--crash 1@0` kills
// rank 1 mid-compute in iteration 0 (optional :F in (0, 1] = fraction of its
// compute finished before dying, default 0.5), `--straggle 2@1:4` slows
// rank 2 by 4x (F >= 1) from iteration 1, `--drop 3@0:2` loses two of
// rank 3's tree messages in iteration 0, `--abort 1` bounces the whole
// allocation in iteration 1, and `--checkpoint 2` snapshots every 2
// iterations (enables kJobAbort-style recovery accounting). Each value is
// one whole token, read as strictly as the numeric flags: `--drop 1@0:2x`
// is a usage error. Whatever is injected, the selected
// combinations must remain IDENTICAL to the serial reference — faults only
// stretch the modeled clock.
//
// Part 2 prices the same pipeline at full paper scale (G = 19411, 911 tumor
// samples) on 100-1000 nodes with the analytic machine model — the Fig. 4(a)
// strong-scaling curve.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>

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
#include "parse_number.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: brca_scaleout [nodes] [--scheduler ea|ed|mem]\n"
               "                     [--crash R@I[:F]] [--straggle R@I:F]\n"
               "                     [--drop R@I:N] [--abort I] [--checkpoint N]\n"
               "                     [--host-threads N] [--host-profile-out FILE]\n"
               "                     [--trace-out FILE] [--metrics-out FILE]\n"
               "                     [--manifest-out FILE] [--artifacts-dir DIR]\n"
               "                     [--log-level LEVEL]\n";
  std::exit(1);
}

/// A fault flag's whole `R@I[:V]` token: rank R and iteration I as strict
/// u32s (cli::parse_number), plus the text after ':' when there is one. Any
/// other shape is a usage error naming the flag.
struct FaultToken {
  std::uint32_t rank = 0;
  std::uint32_t iteration = 0;
  std::optional<std::string_view> value;
};

FaultToken fault_token(const char* flag, std::string_view text, bool needs_value) {
  const std::size_t at = text.find('@');
  const std::size_t colon = text.find(':');
  if (at == std::string_view::npos || (needs_value && colon == std::string_view::npos)) {
    std::cerr << flag << ": expected R@I" << (needs_value ? ":V" : "[:V]") << ", got '" << text
              << "'\n";
    usage();
  }
  const auto rank = multihit::cli::parse_number<std::uint32_t>(flag, text.substr(0, at));
  const auto iteration =
      multihit::cli::parse_number<std::uint32_t>(flag, text.substr(at + 1, colon - at - 1));
  if (!rank || !iteration) usage();
  FaultToken token{*rank, *iteration, std::nullopt};
  if (colon != std::string_view::npos) token.value = text.substr(colon + 1);
  return token;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace multihit;
  std::uint32_t nodes = 4;
  DistributedOptions options;  // 4-hit, 3x1, EA, both prefetches, splicing
  std::uint32_t host_threads = 0;  // 0 = skip the host-sweep part
  std::string host_profile_out;
  std::string trace_out, metrics_out;
  std::string manifest_out, artifacts_dir;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    const auto number = [&](const char* flag, std::string_view text, std::uint32_t lo,
                            std::uint32_t hi) {
      const auto value = cli::parse_number<std::uint32_t>(flag, text, lo, hi);
      if (!value) usage();
      return *value;
    };
    const auto real = [&](const char* flag, std::string_view text, double lo, bool open_lo,
                          double hi) {
      const auto value = cli::parse_real(flag, text, lo, open_lo, hi);
      if (!value) usage();
      return *value;
    };
    if (arg == "--crash") {
      const FaultToken t = fault_token("--crash", next(), false);
      const double finished = t.value ? real("--crash", *t.value, 0.0, true, 1.0) : 0.5;
      options.faults.events.push_back({FaultKind::kRankCrash, t.rank, t.iteration, finished, 1});
    } else if (arg == "--straggle") {
      const FaultToken t = fault_token("--straggle", next(), true);
      const double factor =
          real("--straggle", *t.value, 1.0, false, std::numeric_limits<double>::infinity());
      options.faults.events.push_back({FaultKind::kStraggler, t.rank, t.iteration, factor, 2});
    } else if (arg == "--drop") {
      const FaultToken t = fault_token("--drop", next(), true);
      const std::uint32_t count = number("--drop", *t.value, 1, UINT32_MAX);
      options.faults.events.push_back({FaultKind::kMessageDrop, t.rank, t.iteration, 0.0, count});
    } else if (arg == "--abort") {
      const std::uint32_t iteration = number("--abort", next(), 0, UINT32_MAX);
      options.faults.events.push_back({FaultKind::kJobAbort, 0, iteration, 0.0, 1});
    } else if (arg == "--checkpoint") {
      options.checkpoint_every = number("--checkpoint", next(), 0, UINT32_MAX);
    } else if (arg == "--host-threads") {
      host_threads = number("--host-threads", next(), 1, 256);
    } else if (arg == "--host-profile-out") {
      host_profile_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
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
      nodes = number("nodes", argv[a], 1, 1024);
    } else {
      usage();
    }
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
  if (!trace_out.empty() || !metrics_out.empty()) {
    options.recorder = &recorder;
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
    // Monitor the trace exactly as the offline tool will see it — serialized
    // to Chrome format (microsecond timestamps) and parsed back — so the
    // recorded counters equal what an obstool monitor replay records.
    const obs::Tracer replay =
        obs::tracer_from_chrome(obs::JsonValue::parse(recorder.trace.to_chrome_json()));
    const obs::HealthReport health = obs::monitor_trace(replay);
    obs::record_health(health, recorder.metrics);
    std::cout << "  health monitor: " << health.incidents.size()
              << " incident(s), recorded as health.incidents metrics\n";
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
    // The profiler's counters land in the run's metrics.
    obs::HostProfiler host_profiler(&recorder.metrics);
    if (!host_profile_out.empty() || !metrics_out.empty()) sweep.profiler = &host_profiler;
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
      const obs::Tracer host_trace = host_profiler.trace();
      std::ofstream out(host_profile_out);
      if (out) out << host_trace.to_chrome_json() << '\n';
      if (!out) {
        std::cerr << "error: cannot write host trace to " << host_profile_out << "\n";
        return 1;
      }
      std::cout << "  host trace written to " << host_profile_out << " ("
                << host_profiler.profile().sweeps.size() << " sweep(s), "
                << host_trace.size()
                << " events; read with multihit-obstool analyze)\n";
    }
  }
  if (!metrics_out.empty()) {
    if (!recorder.write_metrics(metrics_out)) {
      std::cerr << "error: cannot write metrics to " << metrics_out << "\n";
      return 1;
    }
    std::cout << "  metrics written to " << metrics_out << " ("
              << recorder.metrics.series_count() << " series)\n";
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
