// multihit-serve: replay a seeded multi-tenant request trace through the
// deterministic job service (src/serve).
//
//   $ ./examples/multihit-serve [--mix open|closed|bursty|diurnal]
//                               [--jobs N] [--seed S] [--gpus G]
//                               [--concurrent N] [--queue-cap N] [--quota N]
//                               [--invalidate-rate F] [--no-cache]
//                               [--no-verify]
//                               [--trace-out FILE] [--metrics-out FILE]
//                               [--slo-spec FILE]
//                               [--scenario none|overload|starvation|burn|thrash]
//                               [--manifest-out FILE] [--artifacts-dir DIR]
//                               [--bench]
//
// The trace generator (src/serve/trace.cpp) produces a fully seeded request
// sequence — tenants, priorities, cancer types, arrival times — in one of
// four arrival mixes: open (Poisson), closed (a fixed client population with
// think times), bursty (thundering herds at period marks), diurnal
// (sinusoid-modulated rate). The JobService replays it on the simulated
// clock: admission control against a bounded queue and per-tenant quotas,
// priority scheduling with iteration-boundary preemption, the fleet split
// across concurrent jobs by the two-level equi-area scheduler, and
// per-cancer-type matrix/result caching with explicit invalidation.
//
// Everything is deterministic. Two runs with the same flags produce
// byte-identical --trace-out/--metrics-out files, on ANY bitops backend
// (MULTIHIT_BITOPS=scalar|avx2|auto) — scripts/ci.sh pins this with cmp.
// The run writes no format of its own: each analyze request is one `job`
// instant in the trace (tenant, outcome, selections, exact arrival and
// finish), and the numbers the instants do not carry are serve.* series in
// the metrics (see serve/service.hpp). Unless --no-verify, the driver also
// re-runs every completed job standalone (same dataset, same hit count, one
// job on the whole pipeline) and exits 1 if any served selections differ —
// multi-tenant time-sharing must never change an answer.
//
// --bench writes BENCH_serve_latency.json (p50/p99 job latency, jobs/sec,
// makespan) for the scripts/bench_compare.py regression gate.
//
// --slo-spec loads per-tenant SLO objectives (obs::parse_slo grammar); the
// run records its trace, reads the SLO input back from the job instants
// (obs::slo_input_from_trace) and evaluates it in-process, and the verdict
// lands in the --metrics-out snapshot as `slo.*` series (obs::record_slo) —
// equal to what an offline `obstool slo TRACE --spec FILE METRICS` replay of
// the saved --trace-out file records. With --bench, a BENCH_serve_slo.json record
// (per-tenant p99 attainment, worst burn rate) rides along. --scenario
// plants one serve pathology (see serve::apply_scenario) on top of the other
// flags, for detector-quality sweeps; violations never change this tool's
// exit status — the verdict is `obstool slo`'s job.
//
// --manifest-out writes a multihit.run.v1 manifest (obs/runinfo.hpp): the
// run configuration plus a digest inventory of every artifact the
// invocation emitted, the unit `obstool diff` compares. --artifacts-dir DIR
// is the one-flag spelling: it defaults --trace-out/--metrics-out to
// standard names under DIR and writes DIR/manifest.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bitmat/bitops.hpp"
#include "core/engine.hpp"
#include "data/registry.hpp"
#include "obs/bench.hpp"
#include "obs/recorder.hpp"
#include "obs/runinfo.hpp"
#include "obs/schema.hpp"
#include "parse_number.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "serve/service.hpp"

namespace {

using namespace multihit;
using namespace multihit::serve;

int usage() {
  std::cerr << "usage: multihit-serve [--mix open|closed|bursty|diurnal]\n"
               "                      [--jobs N] [--seed S] [--gpus G]\n"
               "                      [--concurrent N] [--queue-cap N] [--quota N]\n"
               "                      [--invalidate-rate F] [--no-cache] [--no-verify]\n"
               "                      [--trace-out FILE] [--metrics-out FILE]\n"
               "                      [--slo-spec FILE]\n"
               "                      [--scenario none|overload|starvation|burn|thrash]\n"
               "                      [--manifest-out FILE] [--artifacts-dir DIR]\n"
               "                      [--bench]\n";
  return 2;
}

/// Re-runs one (cancer, hits) job standalone — the whole pipeline to
/// itself — and returns its selections. Memoized: the service's determinism
/// means every job on the same pair must produce the same answer anyway.
const std::vector<std::vector<std::uint32_t>>& standalone_selections(
    std::map<std::pair<std::string, std::uint32_t>, std::vector<std::vector<std::uint32_t>>>&
        memo,
    const std::string& cancer, std::uint32_t hits) {
  const auto key = std::make_pair(cancer, hits);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const auto type = find_cancer_type(cancer);
  const Dataset data = generate_dataset(CancerCache::serve_spec(*type));
  EngineConfig config;
  config.hits = hits;
  const GreedyResult result =
      run_greedy(data.tumor, data.normal, config, make_kernel_evaluator(hits));
  return memo.emplace(key, result.combinations()).first->second;
}

}  // namespace

int main(int argc, char** argv) {
  TraceSpec spec;
  ServiceOptions options;
  bool verify = true;
  bool bench = false;
  Scenario scenario = Scenario::kNone;
  std::string trace_path;
  std::string metrics_path;
  std::string slo_path;
  std::string manifest_out;
  std::string artifacts_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    // A bad number is a usage error naming its flag (exits 2, before any work).
    const auto number = [&](auto lo) {
      const auto parsed = cli::parse_number(arg, value(), lo);
      if (!parsed) std::exit(usage());
      return *parsed;
    };
    if (arg == "--mix") {
      const auto mix = parse_mix(value());
      if (!mix) return usage();
      spec.mix = *mix;
    } else if (arg == "--jobs") {
      spec.jobs = number(std::uint32_t{0});
    } else if (arg == "--seed") {
      spec.seed = number(std::uint64_t{0});
    } else if (arg == "--gpus") {
      options.gpus = number(std::uint32_t{1});
    } else if (arg == "--concurrent") {
      options.max_concurrent = number(std::uint32_t{1});
    } else if (arg == "--queue-cap") {
      options.queue_capacity = number(std::uint32_t{1});
    } else if (arg == "--quota") {
      options.tenant_quota = number(std::uint32_t{0});
    } else if (arg == "--invalidate-rate") {
      const auto rate = cli::parse_real(arg, value(), 0.0);
      if (!rate) return usage();
      spec.invalidate_rate = *rate;
    } else if (arg == "--no-cache") {
      options.result_cache = false;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--trace-out") {
      trace_path = value();
    } else if (arg == "--metrics-out") {
      metrics_path = value();
    } else if (arg == "--slo-spec") {
      slo_path = value();
    } else if (arg == "--scenario") {
      const auto parsed = parse_scenario(value());
      if (!parsed) return usage();
      scenario = *parsed;
    } else if (arg == "--manifest-out") {
      manifest_out = value();
    } else if (arg == "--artifacts-dir") {
      artifacts_dir = value();
    } else if (arg == "--bench") {
      bench = true;
    } else {
      return usage();
    }
  }

  if (!artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(artifacts_dir, ec);
    if (ec) {
      std::fprintf(stderr, "multihit-serve: cannot create %s: %s\n",
                   artifacts_dir.c_str(), ec.message().c_str());
      return 2;
    }
    const auto standard = [&](const char* name) {
      return (std::filesystem::path(artifacts_dir) / name).string();
    };
    if (trace_path.empty()) trace_path = standard("run.trace.json");
    if (metrics_path.empty()) metrics_path = standard("run.metrics.json");
    if (manifest_out.empty()) manifest_out = standard("manifest.json");
  }
  apply_scenario(spec, options, scenario);
  if (!slo_path.empty()) {
    std::ifstream in(slo_path);
    if (!in) {
      std::fprintf(stderr, "multihit-serve: cannot read %s\n", slo_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      options.slo = obs::parse_slo(buffer.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "multihit-serve: %s\n", e.what());
      return 1;
    }
  }

  obs::Recorder recorder;
  if (!trace_path.empty() || !metrics_path.empty() || !options.slo.empty()) {
    options.recorder = &recorder;
  }

  // The spec comes from the flags, so a spec the generator refuses (say
  // --jobs 0, or an --invalidate-rate whose count overflows) is a usage error.
  RequestTrace trace;
  try {
    trace = generate_trace(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "multihit-serve: %s\n", e.what());
    return usage();
  }
  JobService service(options);
  const ServeResult result = service.replay(trace);

  std::printf("multihit-serve: mix=%s jobs=%u seed=%llu gpus=%u concurrent=%u\n",
              mix_name(trace.spec.mix), trace.spec.jobs,
              static_cast<unsigned long long>(trace.spec.seed), options.gpus,
              options.max_concurrent);
  std::printf("  requests=%zu rounds=%llu completed=%u rejected=%u cache_hits=%u\n",
              trace.requests.size(), static_cast<unsigned long long>(result.rounds),
              result.completed, result.rejected, result.cache_hits);
  std::printf("  makespan=%.3fs p50=%.3fs p99=%.3fs mean=%.3fs throughput=%.4f jobs/s\n",
              result.makespan, result.p50_latency, result.p99_latency, result.mean_latency,
              result.jobs_per_sec);
  for (const TenantStats& tenant : result.tenants) {
    std::printf("  tenant %-8s completed=%-3u rejected=%-3u p50=%.3fs p99=%.3fs\n",
                tenant.tenant.c_str(), tenant.completed, tenant.rejected, tenant.p50_latency,
                tenant.p99_latency);
  }
  std::printf("  cache: builds=%llu dataset_hits=%llu result_hits=%llu misses=%llu "
              "invalidations=%llu\n",
              static_cast<unsigned long long>(result.cache.dataset_builds),
              static_cast<unsigned long long>(result.cache.dataset_hits),
              static_cast<unsigned long long>(result.cache.result_hits),
              static_cast<unsigned long long>(result.cache.result_misses),
              static_cast<unsigned long long>(result.cache.invalidations));

  if (verify) {
    std::map<std::pair<std::string, std::uint32_t>, std::vector<std::vector<std::uint32_t>>>
        memo;
    std::uint32_t checked = 0;
    for (const JobRecord& job : result.jobs) {
      if (job.outcome != JobOutcome::kCompleted) continue;
      if (job.selections != standalone_selections(memo, job.cancer, job.hits)) {
        std::fprintf(stderr,
                     "multihit-serve: job %u (%s, %u-hit) selections differ from the "
                     "standalone run\n",
                     job.id, job.cancer.c_str(), job.hits);
        return 1;
      }
      ++checked;
    }
    std::printf("  verified: %u served results bit-identical to standalone runs\n", checked);
  }

  obs::SloReport slo;
  if (!options.slo.empty()) {
    slo = obs::evaluate_slo(obs::slo_input_from_trace(recorder.trace), options.slo);
    obs::record_slo(slo, recorder.metrics);
    std::printf("  slo: %u objective(s), %u violated, worst burn %.3fx, "
                "worst p99 attainment %.3f\n",
                slo.objectives, slo.violated, slo.worst_burn, slo.worst_p99_attainment);
  }

  if (!trace_path.empty() && !recorder.write_trace(trace_path)) {
    std::fprintf(stderr, "multihit-serve: cannot write %s\n", trace_path.c_str());
    return 2;
  }
  if (!metrics_path.empty() && !recorder.write_metrics(metrics_path)) {
    std::fprintf(stderr, "multihit-serve: cannot write %s\n", metrics_path.c_str());
    return 2;
  }

  if (!manifest_out.empty()) {
    obs::RunManifest manifest;
    manifest.driver = "multihit-serve";
    obs::set_config(manifest, "mix", mix_name(trace.spec.mix));
    obs::set_config(manifest, "jobs", std::to_string(trace.spec.jobs));
    obs::set_config(manifest, "seed", std::to_string(trace.spec.seed));
    obs::set_config(manifest, "gpus", std::to_string(options.gpus));
    obs::set_config(manifest, "concurrent", std::to_string(options.max_concurrent));
    obs::set_config(manifest, "queue_cap", std::to_string(options.queue_capacity));
    obs::set_config(manifest, "quota", std::to_string(options.tenant_quota));
    obs::set_config(manifest, "invalidate_rate", obs::json_number(spec.invalidate_rate));
    obs::set_config(manifest, "cache", options.result_cache ? "on" : "off");
    obs::set_config(manifest, "scenario", scenario_name(scenario));
    obs::set_config(manifest, "bitops_backend", backend_name(active_backend()));
    try {
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
      add("trace", obs::kChromeTraceTag, trace_path);
      add("metrics", obs::kMetricsSchema, metrics_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "multihit-serve: %s\n", e.what());
      return 1;
    }
    if (!obs::write_manifest(manifest, manifest_out)) {
      std::fprintf(stderr, "multihit-serve: cannot write %s\n", manifest_out.c_str());
      return 2;
    }
    std::printf("  run manifest written to %s\n", manifest_out.c_str());
  }

  if (bench && !options.slo.empty()) {
    obs::BenchReporter reporter("serve_slo");
    for (const obs::SloTenantReport& tenant : slo.tenants) {
      for (const obs::SloObjectiveResult& objective : tenant.objectives) {
        if (objective.objective.kind == obs::SloKind::kLatency &&
            objective.objective.percentile == 99.0) {
          reporter.series("p99_attainment_" + tenant.tenant, objective.attainment,
                          "fraction");
        }
      }
    }
    reporter.series("worst_burn", slo.worst_burn, "x");
    reporter.series("violated", static_cast<double>(slo.violated), "objectives");
    reporter.write();
    std::printf("  bench record: %s\n", reporter.path().c_str());
  }

  if (bench) {
    obs::BenchReporter reporter("serve_latency");
    reporter.series("p50_latency_s", result.p50_latency, "s");
    reporter.series("p99_latency_s", result.p99_latency, "s");
    reporter.series("mean_latency_s", result.mean_latency, "s");
    reporter.series("jobs_per_sec", result.jobs_per_sec, "jobs/s");
    reporter.series("makespan_s", result.makespan, "s");
    reporter.series("rounds", static_cast<double>(result.rounds), "rounds");
    reporter.write();
    std::printf("  bench record: %s\n", reporter.path().c_str());
  }
  return 0;
}
