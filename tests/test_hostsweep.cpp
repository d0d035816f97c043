// Determinism harness for the host-threaded sweep (src/core/hostsweep.hpp)
// and its building block, the ChunkQueue.
//
// The load-bearing property: the sweep's selections are BIT-IDENTICAL across
// thread counts {1, 2, 3, 4, 8} (and so across the chunk plans the sweep
// derives from them), and to both the serial reference and the
// simulated-cluster path — work stealing off the lock-free queue may deliver
// chunks to workers in any order, but the chunk-begin-sorted candidate fold
// plus EvalResult's strict total order make the winner independent of that
// order.

#include "core/hostsweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cluster/distributed.hpp"
#include "core/engine.hpp"
#include "core/serial.hpp"
#include "core/workqueue.hpp"
#include "data/generator.hpp"
#include "obs/analyze.hpp"
#include "obs/hostprof.hpp"

namespace multihit {
namespace {

// --- ChunkQueue -------------------------------------------------------------

TEST(ChunkQueue, CoversRangeExactlyOnceWithNonDividingChunk) {
  // 0..103 in chunks of 10: eleven chunks, last one short.
  ChunkQueue queue(103, 10);
  EXPECT_EQ(queue.chunk_count(), 11u);
  std::vector<bool> seen(103, false);
  std::uint64_t begin = 0, end = 0;
  std::uint64_t chunks = 0;
  while (queue.next(&begin, &end)) {
    ++chunks;
    EXPECT_LT(begin, end);
    EXPECT_LE(end, 103u);
    for (std::uint64_t i = begin; i < end; ++i) {
      EXPECT_FALSE(seen[i]) << "index " << i << " claimed twice";
      seen[i] = true;
    }
  }
  EXPECT_EQ(chunks, 11u);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  // Exhausted queues stay exhausted.
  EXPECT_FALSE(queue.next(&begin, &end));
}

TEST(ChunkQueue, EmptyAndSingleChunkRanges) {
  ChunkQueue empty(0, 8);
  std::uint64_t begin = 0, end = 0;
  EXPECT_EQ(empty.chunk_count(), 0u);
  EXPECT_FALSE(empty.next(&begin, &end));

  ChunkQueue one(5, 100);
  EXPECT_EQ(one.chunk_count(), 1u);
  ASSERT_TRUE(one.next(&begin, &end));
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 5u);
  EXPECT_FALSE(one.next(&begin, &end));
}

TEST(ChunkQueue, ConcurrentClaimsArePartition) {
  // 4 threads hammer one queue; the union of claims must be an exact
  // partition (no loss, no duplication) — the fetch_add contract.
  ChunkQueue queue(10000, 7);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      std::uint64_t begin = 0, end = 0, local = 0;
      while (queue.next(&begin, &end)) local += end - begin;
      total.fetch_add(local);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(total.load(), 10000u);
}

// --- host sweep vs serial reference ----------------------------------------

struct Fixture {
  Dataset data;
  FContext ctx;
};

Fixture make_fixture(std::uint32_t hits, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 32;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = hits;
  spec.num_combinations = 3;
  spec.background_rate = 0.05;
  spec.seed = seed;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

TEST(HostSweep, MatchesSerialAcrossThreadsChunksAndHits) {
  for (const std::uint32_t hits : {2u, 3u, 4u}) {
    const Fixture f = make_fixture(hits, 4200 + hits);
    const EvalResult reference =
        serial_find_best(f.data.tumor, f.data.normal, f.ctx, hits);
    ASSERT_TRUE(reference.valid);

    for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
      HostSweepOptions options;
      options.hits = hits;
      options.threads = threads;
      HostSweepTelemetry telemetry;
      const EvalResult swept =
          host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
      ASSERT_TRUE(swept.valid);
      EXPECT_EQ(swept.combo_rank, reference.combo_rank)
          << "hits=" << hits << " threads=" << threads;
      EXPECT_EQ(swept.f, reference.f);
      EXPECT_EQ(swept.tp, reference.tp);
      EXPECT_EQ(swept.tn, reference.tn);
      EXPECT_LE(telemetry.threads, threads);
      EXPECT_GE(telemetry.chunks, 1u);
    }
  }
}

TEST(HostSweep, TelemetryCountsTheWholeSpace) {
  const Fixture f = make_fixture(4, 77);
  const std::uint64_t lambdas = scheme_threads(Scheme{4, 3}, f.data.genes());
  for (const std::uint32_t threads : {1u, 3u}) {
    HostSweepOptions options;
    options.hits = 4;
    options.threads = threads;
    HostSweepTelemetry telemetry;
    (void)host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
    // One worker takes the whole space; three split it into about
    // kChunksPerWorker block-aligned chunks each.
    if (threads == 1u) {
      EXPECT_EQ(telemetry.chunk_size, lambdas);
    } else {
      EXPECT_EQ(telemetry.chunk_size % CarriedBounds::kBlockThreads, 0u);
      EXPECT_LE(telemetry.chunks, kChunksPerWorker * threads);
      EXPECT_GT(telemetry.chunks, threads);
    }
    // Every λ chunk must be evaluated exactly once regardless of scheduling.
    EXPECT_EQ(telemetry.chunks, (lambdas + telemetry.chunk_size - 1) / telemetry.chunk_size);
    // 3x1 visits each 4-combination exactly once.
    EXPECT_EQ(telemetry.counts.combinations, binomial(f.data.genes(), 4));
  }
}

TEST(HostSweep, RejectsInvalidConfigurations) {
  const Fixture f = make_fixture(3, 5);
  // Any h >= 2 whose ranks fit u64 is a valid sweep now; one hit (no loop
  // to keep innermost) and hit counts past the kernel's fold stack are not.
  HostSweepOptions options;
  for (const std::uint32_t hits : {1u, kMaxSchemeHits + 1}) {
    options.hits = hits;
    EXPECT_THROW((void)host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options),
                 std::invalid_argument)
        << "hits=" << hits;
  }
}

TEST(HostSweep, FiveHitRoutesToTheFiveHitKernel) {
  // A per-hit dispatch once routed 5-hit through a bare `default:`. The
  // sweep now derives Scheme{5, 4} from the hit count; pin that route
  // against the serial reference so the wrong combination space can never
  // be scored silently.
  SyntheticSpec spec;
  spec.genes = 22;
  spec.tumor_samples = 60;
  spec.normal_samples = 40;
  spec.hits = 5;
  spec.num_combinations = 3;
  spec.background_rate = 0.05;
  spec.seed = 86;
  const Dataset data = generate_dataset(spec);
  const FContext ctx{FParams{}, spec.tumor_samples, spec.normal_samples};
  const EvalResult reference = serial_find_best(data.tumor, data.normal, ctx, 5);
  ASSERT_TRUE(reference.valid);

  HostSweepOptions options;
  options.hits = 5;
  options.threads = 2;
  HostSweepTelemetry telemetry;
  const EvalResult swept =
      host_sweep_find_best(data.tumor, data.normal, ctx, options, &telemetry);
  ASSERT_TRUE(swept.valid);
  EXPECT_EQ(swept.combo_rank, reference.combo_rank);
  EXPECT_EQ(swept.f, reference.f);
  // 4x1 visits each 5-combination exactly once.
  EXPECT_EQ(telemetry.counts.combinations, binomial(spec.genes, 5));
}

// --- worker-clamp edge cases ------------------------------------------------

TEST(HostSweep, EmptyLambdaSpaceRunsOneWorkerAndStaysInvalid) {
  // genes < scheme order: C(2,3) = 0 threads under 3x1 — zero chunks. The
  // clamp must still run exactly one worker (which drains nothing) instead
  // of underflowing, and the result must stay invalid.
  BitMatrix tumor(2, 8);
  BitMatrix normal(2, 8);
  tumor.set(0, 0);
  const FContext ctx{FParams{}, 8, 8};
  HostSweepOptions options;
  options.hits = 4;
  options.threads = 6;
  HostSweepTelemetry telemetry;
  const EvalResult best = host_sweep_find_best(tumor, normal, ctx, options, &telemetry);
  EXPECT_FALSE(best.valid);
  EXPECT_EQ(telemetry.chunks, 0u);
  EXPECT_EQ(telemetry.candidates, 0u);
  EXPECT_EQ(telemetry.threads, 1u);
  EXPECT_EQ(telemetry.threads_requested, 6u);
}

TEST(HostSweep, MoreWorkersThanChunksClampsAndReportsBothCounts) {
  // 32 genes at 2 hits are 32 λ, fewer than one 64-thread block: one chunk
  // at any worker count.
  const Fixture f = make_fixture(2, 11);
  HostSweepOptions options;
  options.hits = 2;
  options.threads = 8;
  HostSweepTelemetry telemetry;
  const EvalResult best =
      host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(telemetry.chunks, 1u);
  EXPECT_EQ(telemetry.threads, 1u) << "8 workers for 1 chunk is 7 idle threads";
  EXPECT_EQ(telemetry.threads_requested, 8u);
  // The telemetry reports the chunk size the queue used: one whole block.
  EXPECT_EQ(telemetry.chunk_size, CarriedBounds::kBlockThreads);
}

// --- evaluator telemetry sink ----------------------------------------------

TEST(HostSweep, EvaluatorSinkAccumulatesWholeGreedyRunWithSerialParity) {
  // make_host_sweep_evaluator used to DROP HostSweepTelemetry on the floor;
  // the sink now accumulates every per-iteration sweep. Parity pin: the 3x1
  // scheme visits each 4-combination exactly once per iteration, so the
  // sink's combination count must equal iterations x C(genes, 4) — the same
  // space the serial reference scans.
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 64;
  spec.normal_samples = 48;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.03;
  spec.seed = 4242;
  const Dataset data = generate_dataset(spec);

  EngineConfig config;
  config.hits = 4;
  const GreedyResult serial =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(4));
  ASSERT_FALSE(serial.iterations.empty());

  HostSweepOptions options;
  options.hits = 4;
  options.threads = 3;
  HostSweepTelemetry total;
  const GreedyResult swept = run_greedy(data.tumor, data.normal, config,
                                        make_host_sweep_evaluator(options, &total));
  EXPECT_EQ(swept.combinations(), serial.combinations());

  // Every sweep of the run splits the same space the same way.
  const std::uint64_t iterations = swept.iterations.size();
  const std::uint64_t lambdas = scheme_threads(Scheme{4, 3}, data.genes());
  ASSERT_GT(total.chunk_size, 0u);
  const std::uint64_t chunks_per_sweep = (lambdas + total.chunk_size - 1) / total.chunk_size;
  EXPECT_EQ(total.counts.combinations, iterations * binomial(data.genes(), 4));
  EXPECT_EQ(total.chunks, iterations * chunks_per_sweep);
  EXPECT_GE(total.candidates, iterations);  // at least one valid candidate each
  EXPECT_EQ(total.chunk_size % CarriedBounds::kBlockThreads, 0u);
  EXPECT_EQ(total.threads_requested, 3u);
}

// --- prefix pruning -----------------------------------------------------------

TEST(HostSweep, PruningRepeatsAtEachWorkerCount) {
  // A chunk cuts against the shared floor and its own incumbent only, and
  // the chunks depend on the space and the worker count alone. So what is
  // pruned depends on the data and the worker count, never on which worker
  // ran a chunk or when: at each worker count two runs repeat every count,
  // and every worker count selects the serial reference's combinations.
  for (const std::uint32_t hits : {2u, 3u, 4u}) {
    SyntheticSpec spec;
    spec.genes = 36;
    spec.tumor_samples = 80;
    spec.normal_samples = 60;
    spec.hits = hits;
    spec.num_combinations = 3;
    spec.background_rate = 0.02;
    spec.seed = 2718 + hits;
    const Dataset data = generate_dataset(spec);
    EngineConfig config;
    config.hits = hits;
    const GreedyResult serial =
        run_greedy(data.tumor, data.normal, config, make_serial_evaluator(hits));
    ASSERT_FALSE(serial.iterations.empty());

    for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
      HostSweepOptions options;
      options.hits = hits;
      options.threads = threads;
      HostSweepTelemetry first, second;
      const GreedyResult swept = run_greedy(data.tumor, data.normal, config,
                                            make_host_sweep_evaluator(options, &first));
      (void)run_greedy(data.tumor, data.normal, config,
                       make_host_sweep_evaluator(options, &second));
      const std::string what = "hits=" + std::to_string(hits) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(swept.combinations(), serial.combinations()) << what;
      EXPECT_EQ(first.counts.combinations,
                swept.iterations.size() * binomial(data.genes(), hits));
      EXPECT_GT(first.counts.pruned, 0u) << what;
      EXPECT_LT(first.counts.pruned, first.counts.combinations) << what;
      EXPECT_EQ(second.chunks, first.chunks) << what;
      EXPECT_EQ(second.counts.pruned, first.counts.pruned) << what;
      EXPECT_EQ(second.counts.leaf_cut, first.counts.leaf_cut) << what;
      EXPECT_EQ(second.counts.threads_skipped, first.counts.threads_skipped) << what;
    }
  }
}

// --- carried bounds -----------------------------------------------------------

/// The host-sweep evaluator with the Engine's carried bounds withheld.
Evaluator cold_sweep(HostSweepOptions options, HostSweepTelemetry* sink) {
  return [inner = make_host_sweep_evaluator(options, sink)](
             const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx) {
    FContext cold = ctx;
    cold.carried = nullptr;
    return inner(tumor, normal, cold);
  };
}

TEST(HostSweep, CarriedBoundsMatchColdAcrossThreadsAndChunks) {
  // One worker sweeps the space as one chunk, more workers in block-aligned
  // chunks: at every worker count the warm sweep selects the cold sweep's
  // combinations over the same chunks, and its bounds skip threads.
  for (const std::uint32_t hits : {2u, 3u, 4u}) {
    SyntheticSpec spec;
    spec.genes = 40;
    spec.tumor_samples = 90;
    spec.normal_samples = 60;
    spec.hits = hits;
    spec.num_combinations = 4;
    spec.background_rate = 0.03;
    spec.seed = 3100 + hits;
    const Dataset data = generate_dataset(spec);
    EngineConfig config;
    config.hits = hits;
    for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
      HostSweepOptions options;
      options.hits = hits;
      options.threads = threads;
      HostSweepTelemetry cold_total, total;
      const GreedyResult cold =
          run_greedy(data.tumor, data.normal, config, cold_sweep(options, &cold_total));
      ASSERT_FALSE(cold.iterations.empty());
      const GreedyResult warm = run_greedy(data.tumor, data.normal, config,
                                           make_host_sweep_evaluator(options, &total));
      const std::string what = "hits=" + std::to_string(hits) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(warm.combinations(), cold.combinations()) << what;
      EXPECT_EQ(total.counts.combinations, cold_total.counts.combinations) << what;
      EXPECT_EQ(total.chunks, cold_total.chunks) << what;
      EXPECT_EQ(cold_total.counts.threads_skipped, 0u) << what;
      EXPECT_GT(total.counts.threads_skipped, 0u) << what;
    }
  }
}

TEST(HostSweep, MultiWorkerSweepsSkipOnWarmIterations) {
  // A 4-hit greedy solve through 2- and 4-worker sweeps, over the default
  // 64-thread blocks and over bounds capped at 4 blocks (of 4096 threads
  // here): the first iteration is cold, and the warm ones skip threads.
  SyntheticSpec spec;
  spec.genes = 40;
  spec.tumor_samples = 90;
  spec.normal_samples = 60;
  spec.hits = 4;
  spec.num_combinations = 4;
  spec.background_rate = 0.03;
  spec.seed = 3104;
  const Dataset data = generate_dataset(spec);
  EngineConfig config;
  config.hits = 4;
  const GreedyResult serial =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(4));
  ASSERT_GE(serial.iterations.size(), 2u);
  for (const std::uint32_t threads : {2u, 4u}) {
    for (const bool capped : {false, true}) {
      HostSweepOptions options;
      options.hits = 4;
      options.threads = threads;
      CarriedBounds capped_bounds(4);
      std::vector<KernelCounts> per_iteration;
      const Evaluator sweep = [&](const BitMatrix& tumor, const BitMatrix& normal,
                                  const FContext& ctx) {
        FContext swept = ctx;
        if (capped) swept.carried = &capped_bounds;
        HostSweepTelemetry telemetry;
        const EvalResult best = host_sweep_find_best(tumor, normal, swept, options, &telemetry);
        EXPECT_GT(telemetry.threads, 1u);
        per_iteration.push_back(telemetry.counts);
        return best;
      };
      const std::string what =
          "threads=" + std::to_string(threads) + (capped ? " capped" : " default");
      const GreedyResult result = run_greedy(data.tumor, data.normal, config, sweep);
      EXPECT_EQ(result.combinations(), serial.combinations()) << what;
      ASSERT_EQ(per_iteration.size(), result.iterations.size()) << what;
      if (capped) {
        EXPECT_EQ(capped_bounds.block_shift(), 12u) << what;
      }
      EXPECT_EQ(per_iteration[0].threads_skipped, 0u) << what;
      std::uint64_t warm_skipped = 0;
      for (std::size_t i = 1; i < per_iteration.size(); ++i) {
        warm_skipped += per_iteration[i].threads_skipped;
      }
      EXPECT_GT(warm_skipped, 0u) << what;
    }
  }
}

TEST(HostSweep, ChunksSkippedOnCarriedBoundsReadNoClock) {
  // A chunk its carried bounds rule out is tallied, not timed: the trace
  // holds claim and evaluate spans for the evaluated chunks only, and it
  // round-trips through the offline reader with them.
  SyntheticSpec spec;
  spec.genes = 48;
  spec.tumor_samples = 100;
  spec.normal_samples = 70;
  spec.hits = 3;
  spec.num_combinations = 4;
  spec.background_rate = 0.02;
  spec.seed = 5150;
  const Dataset data = generate_dataset(spec);
  EngineConfig config;
  config.hits = 3;
  obs::MetricsRegistry metrics;
  obs::HostProfiler profiler(&metrics);
  HostSweepOptions options;
  options.hits = 3;
  options.threads = 8;  // 1,128 λ in 64-λ chunks
  options.profiler = &profiler;
  const GreedyResult warm =
      run_greedy(data.tumor, data.normal, config, make_host_sweep_evaluator(options));
  EXPECT_EQ(warm.combinations(),
            run_greedy(data.tumor, data.normal, config, make_serial_evaluator(3)).combinations());

  const double skipped = metrics.counter("hostsweep.skipped_chunks").value();
  ASSERT_GT(skipped, 0.0);
  const double evaluated = metrics.counter("hostsweep.chunks").value() - skipped;
  const obs::Tracer trace = profiler.trace();
  double claims = 0.0, evaluates = 0.0;
  for (const obs::TraceEvent& event : trace.events()) {
    claims += event.name == "claim" ? 1.0 : 0.0;
    evaluates += event.name == "evaluate" ? 1.0 : 0.0;
  }
  EXPECT_EQ(evaluates, evaluated);
  EXPECT_EQ(claims, evaluated);
  const std::string chrome = trace.to_chrome_json();
  EXPECT_EQ(obs::tracer_from_chrome(obs::JsonValue::parse(chrome)).to_chrome_json(), chrome);
}

// --- full greedy determinism ------------------------------------------------

TEST(HostSweep, GreedySelectionsIdenticalAcrossThreadCountsAndToCluster) {
  SyntheticSpec spec;
  spec.genes = 36;
  spec.tumor_samples = 80;
  spec.normal_samples = 60;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.02;
  spec.seed = 1337;
  const Dataset data = generate_dataset(spec);

  EngineConfig config;
  config.hits = 4;
  const GreedyResult serial =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(4));
  ASSERT_FALSE(serial.iterations.empty());

  for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    HostSweepOptions options;
    options.hits = 4;
    options.threads = threads;
    const GreedyResult swept =
        run_greedy(data.tumor, data.normal, config, make_host_sweep_evaluator(options));
    EXPECT_EQ(swept.combinations(), serial.combinations()) << "threads=" << threads;
    EXPECT_EQ(swept.uncovered_tumor, serial.uncovered_tumor);
  }

  // The simulated-cluster path must agree with the host sweep too: same
  // kernels, same merge semantics, different execution substrate.
  SummitConfig summit;
  summit.nodes = 2;
  const ClusterRunner runner(summit);
  const ClusterRunResult cluster = runner.run(data, DistributedOptions{});
  EXPECT_EQ(cluster.greedy.combinations(), serial.combinations());
}

}  // namespace
}  // namespace multihit
