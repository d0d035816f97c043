// Host-profiler overhead gate: how much wall clock does attaching the
// profiler (span timing + claim histograms + counted bitops dispatch) add to
// the real host-threaded sweep?
//
// Runs the Part 1b workload from brca_scaleout — the BRCA-shaped 4-hit
// downscale (G=90, 120/80 samples, seed 911) — as a full greedy cover with
// 4 host threads, plain and profiled. With the kernel's prefix cut one cover
// takes about half a millisecond, so a single timed cover is mostly thread
// start-up noise: each of the 5 rounds is one interleaved sample that runs
// plain/profiled pairs of covers (order flipped every pair) until each
// variant's covers span >= 100 ms. The overhead is the median over all pairs
// of profiled/plain, so load drift between rounds cancels inside each pair.
// Wall-clock numbers land only in gauges; the strict-gated series are
// booleans and exact counts:
//
//   profiled_identical     profiled and unprofiled greedy runs select the
//                          same combinations (bit-identical cover)
//   overhead_lt_5pct       median profiled/plain pair ratio < 1.05
//   replay_identity        report -> parse -> re-render is byte-identical
//   deterministic_stable   two profiled runs project byte-identical
//                          deterministic documents
//   crosscheck_clean       the profile reconciles against itself
//   pruned_fraction.<code> share of the combinations the kernel's prefix cut
//                          skipped over a full greedy cover of each registry
//                          type's serve dataset (make_kernel_evaluator)
//
// The <5% budget is the host profiler's acceptance gate: the profiled loop
// adds two steady_clock reads per 1024-λ chunk plus the kernel-call counts:
// one thread_local increment per dispatched bitops call, and one credit per
// evaluate_range call for the kernel calls made inline on rows of 1-2 words
// (this workload's 120/80 samples are 2 words, so it takes that path). That
// no longer amortizes to noise: a pruned chunk is a microsecond or two of
// kernel work, and the two reads cost ~80 ns of it on a 4-vCPU VM, so the
// gate measures a real cost close to its bound.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "data/generator.hpp"
#include "data/registry.hpp"
#include "obs/bench.hpp"
#include "obs/hostprof.hpp"
#include "serve/cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMinSampleSeconds = 0.1;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  using namespace multihit;
  std::cout << "Host-profiler overhead on the Part 1b sweep (4-hit, 4 host threads).\n";

  SyntheticSpec spec;
  spec.genes = 90;
  spec.tumor_samples = 120;
  spec.normal_samples = 80;
  spec.hits = 4;
  spec.num_combinations = 5;
  spec.background_rate = 0.012;
  spec.seed = 911;
  const Dataset data = generate_dataset(spec);

  EngineConfig config;
  config.hits = 4;
  HostSweepOptions options;
  options.hits = 4;
  options.threads = 4;
  options.chunk = 1024;

  // One timed cover. A profiled cover gets a fresh profiler (built outside
  // the timed span), so every cover measures the same amount of collection
  // work.
  const auto cover = [&](std::optional<obs::HostProfiler>* profiler, GreedyResult* result) {
    HostSweepOptions sweep = options;
    if (profiler != nullptr) sweep.profiler = &profiler->emplace();
    const auto t0 = Clock::now();
    *result = run_greedy(data.tumor, data.normal, config, make_host_sweep_evaluator(sweep));
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Five interleaved rounds of plain/profiled pairs; the order flips every
  // pair, so drift and warm-up hit both variants alike.
  std::vector<double> plain_s, profiled_s, pair_ratios;
  GreedyResult plain, profiled;
  std::string deterministic_first;
  bool deterministic_stable = true;
  for (int round = 0; round < 5; ++round) {
    std::optional<obs::HostProfiler> last_profiled;
    double plain_total = 0.0, profiled_total = 0.0;
    while (plain_total < kMinSampleSeconds || profiled_total < kMinSampleSeconds) {
      const bool profiled_first = pair_ratios.size() % 2 == 1;
      double profiled_seconds = 0.0;
      if (profiled_first) profiled_seconds = cover(&last_profiled, &profiled);
      const double plain_seconds = cover(nullptr, &plain);
      if (!profiled_first) profiled_seconds = cover(&last_profiled, &profiled);
      plain_s.push_back(plain_seconds);
      profiled_s.push_back(profiled_seconds);
      pair_ratios.push_back(profiled_seconds / plain_seconds);
      plain_total += plain_seconds;
      profiled_total += profiled_seconds;
    }
    const obs::HostProfiler& profiler = *last_profiled;

    const std::string projection = obs::hostprof_deterministic(profiler.profile()).dump();
    if (round == 0) {
      deterministic_first = projection;
    } else if (projection != deterministic_first) {
      deterministic_stable = false;
    }
    if (round == 4) {
      const std::string report = obs::hostprof_report(profiler.profile()).dump();
      const obs::HostProfile parsed = obs::hostprof_from_json(obs::JsonValue::parse(report));
      const bool replay_identity = obs::hostprof_report(parsed).dump() == report;
      const bool crosscheck_clean = obs::hostprof_crosscheck(profiler.profile()).empty() &&
                                    obs::hostprof_crosscheck(parsed).empty();

      const bool profiled_identical = profiled.combinations() == plain.combinations();
      const double overhead = median(pair_ratios) - 1.0;
      const double plain_median = median(plain_s);
      const double profiled_median = median(profiled_s);
      const bool overhead_ok = overhead < 0.05;

      obs::BenchReporter bench("hostprof");
      bench.series("profiled_identical", profiled_identical ? 1.0 : 0.0);
      bench.series("overhead_lt_5pct", overhead_ok ? 1.0 : 0.0);
      bench.series("replay_identity", replay_identity ? 1.0 : 0.0);
      bench.series("deterministic_stable", deterministic_stable ? 1.0 : 0.0);
      bench.series("crosscheck_clean", crosscheck_clean ? 1.0 : 0.0);
      std::cout << "  pruned fraction per cancer type (kernel evaluator, serve datasets):\n";
      for (const CancerType& type : cancer_registry()) {
        const Dataset served = generate_dataset(serve::CancerCache::serve_spec(type));
        EngineConfig served_config;
        served_config.hits = type.hits;
        KernelCounts counts;
        (void)run_greedy(served.tumor, served.normal, served_config,
                         make_kernel_evaluator(type.hits, &counts));
        const double fraction =
            static_cast<double>(counts.pruned) /
            static_cast<double>(std::max<std::uint64_t>(1, counts.combinations));
        bench.series("pruned_fraction." + type.code, fraction);
        std::cout << "    " << type.code << ": " << fraction << " of " << counts.combinations
                  << "\n";
      }
      bench.metrics().gauge("hostprof.overhead_fraction").set(overhead);
      bench.metrics().gauge("hostprof.plain_seconds").set(plain_median);
      bench.metrics().gauge("hostprof.profiled_seconds").set(profiled_median);
      bench.metrics()
          .gauge("hostprof.combos_per_sec")
          .set(static_cast<double>(profiler.profile().total_combinations) / profiled_median);
      bench.write();

      std::cout << "  plain:    " << plain_median << " s per cover (median of "
                << plain_s.size() << ")\n"
                << "  profiled: " << profiled_median << " s per cover (median of "
                << profiled_s.size() << ")\n"
                << "  overhead: " << overhead * 100.0 << "% (median pair ratio; gate: < 5%)\n"
                << "  selections identical: " << (profiled_identical ? "yes" : "NO") << "\n"
                << "  replay byte-identical: " << (replay_identity ? "yes" : "NO") << "\n"
                << "  deterministic projection stable: "
                << (deterministic_stable ? "yes" : "NO") << "\n"
                << "  crosscheck clean: " << (crosscheck_clean ? "yes" : "NO") << "\n";

      const bool gates = profiled_identical && overhead_ok && replay_identity &&
                         deterministic_stable && crosscheck_clean;
      if (!gates) {
        std::cout << "GATE FAILURE: profiler overhead or determinism gate not met.\n";
        return 1;
      }
    }
  }
  return 0;
}
