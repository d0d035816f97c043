// Determinism harness for the host-threaded sweep (src/core/hostsweep.hpp)
// and its building block, the ChunkQueue.
//
// The load-bearing property: the sweep's selections are BIT-IDENTICAL across
// thread counts {1, 2, 8}, chunk sizes (dividing and non-dividing), and to
// both the serial reference and the simulated-cluster path — work stealing
// off the lock-free queue may deliver chunks to workers in any order, but
// the chunk-begin-sorted candidate fold plus EvalResult's strict total order
// make the winner independent of that order.

#include "core/hostsweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "cluster/distributed.hpp"
#include "core/engine.hpp"
#include "core/serial.hpp"
#include "core/workqueue.hpp"
#include "data/generator.hpp"
#include "obs/hostprof.hpp"

namespace multihit {
namespace {

// --- ChunkQueue -------------------------------------------------------------

TEST(ChunkQueue, CoversRangeExactlyOnceWithNonDividingChunk) {
  // 0..103 in chunks of 10: eleven chunks, last one short.
  ChunkQueue queue(0, 103, 10);
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
  ChunkQueue empty(5, 5, 8);
  std::uint64_t begin = 0, end = 0;
  EXPECT_EQ(empty.chunk_count(), 0u);
  EXPECT_FALSE(empty.next(&begin, &end));

  ChunkQueue one(7, 12, 100);
  EXPECT_EQ(one.chunk_count(), 1u);
  ASSERT_TRUE(one.next(&begin, &end));
  EXPECT_EQ(begin, 7u);
  EXPECT_EQ(end, 12u);
  EXPECT_FALSE(one.next(&begin, &end));
}

TEST(ChunkQueue, ConcurrentClaimsArePartition) {
  // 4 threads hammer one queue; the union of claims must be an exact
  // partition (no loss, no duplication) — the fetch_add contract.
  ChunkQueue queue(0, 10000, 7);
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

    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      // 64 divides most ranges here; 37 never does; 1'000'000 exceeds them.
      for (const std::uint64_t chunk : {64ull, 37ull, 1000000ull}) {
        HostSweepOptions options;
        options.hits = hits;
        options.threads = threads;
        options.chunk = chunk;
        HostSweepTelemetry telemetry;
        const EvalResult swept =
            host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
        ASSERT_TRUE(swept.valid);
        EXPECT_EQ(swept.combo_rank, reference.combo_rank)
            << "hits=" << hits << " threads=" << threads << " chunk=" << chunk;
        EXPECT_EQ(swept.f, reference.f);
        EXPECT_EQ(swept.tp, reference.tp);
        EXPECT_EQ(swept.tn, reference.tn);
        EXPECT_LE(telemetry.threads, threads);
        EXPECT_GE(telemetry.chunks, 1u);
      }
    }
  }
}

TEST(HostSweep, TelemetryCountsTheWholeSpace) {
  const Fixture f = make_fixture(4, 77);
  HostSweepOptions options;
  options.hits = 4;
  options.threads = 3;
  options.chunk = 50;
  HostSweepTelemetry telemetry;
  (void)host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
  // Every λ chunk must be evaluated exactly once regardless of scheduling.
  const std::uint64_t lambdas = scheme_threads(Scheme{4, 3}, f.data.genes());
  EXPECT_EQ(telemetry.chunks, (lambdas + options.chunk - 1) / options.chunk);
  // 3x1 visits each 4-combination exactly once.
  EXPECT_EQ(telemetry.counts.combinations, binomial(f.data.genes(), 4));
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
  options.chunk = 61;
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
  const Fixture f = make_fixture(4, 11);
  HostSweepOptions options;
  options.hits = 4;
  options.threads = 8;
  options.chunk = 1000000;  // swallows the whole λ space: one chunk
  HostSweepTelemetry telemetry;
  const EvalResult best =
      host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(telemetry.chunks, 1u);
  EXPECT_EQ(telemetry.threads, 1u) << "8 workers for 1 chunk is 7 idle threads";
  EXPECT_EQ(telemetry.threads_requested, 8u);
  // The telemetry must report the chunk size the queue actually used —
  // before this field existed, consumers had to guess it from the options.
  EXPECT_EQ(telemetry.chunk_size, 1000000u);
}

TEST(HostSweep, ZeroChunkRunsAndReportsChunkOne) {
  // ChunkQueue clamps a chunk of 0 to 1; the telemetry and the profile must
  // report the 1 the queue used, not the 0 that was asked for.
  const Fixture f = make_fixture(4, 12);
  HostSweepOptions options;
  options.hits = 4;
  options.threads = 2;
  options.chunk = 0;
  obs::HostProfiler profiler;
  options.profiler = &profiler;
  HostSweepTelemetry telemetry;
  const EvalResult best =
      host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &telemetry);
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.combo_rank,
            serial_find_best(f.data.tumor, f.data.normal, f.ctx, 4).combo_rank);
  const std::uint64_t lambdas = scheme_threads(Scheme{4, 3}, f.data.genes());
  EXPECT_EQ(telemetry.chunk_size, 1u);
  EXPECT_EQ(telemetry.chunks, lambdas);
  EXPECT_EQ(profiler.profile().chunk_size, 1u);
  EXPECT_EQ(profiler.profile().sweeps.at(0).chunk_size, 1u);
  EXPECT_TRUE(obs::hostprof_crosscheck(profiler.profile()).empty());
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
  options.chunk = 113;
  HostSweepTelemetry total;
  const GreedyResult swept = run_greedy(data.tumor, data.normal, config,
                                        make_host_sweep_evaluator(options, &total));
  EXPECT_EQ(swept.combinations(), serial.combinations());

  const std::uint64_t iterations = swept.iterations.size();
  const std::uint64_t lambdas = scheme_threads(Scheme{4, 3}, data.genes());
  const std::uint64_t chunks_per_sweep = (lambdas + options.chunk - 1) / options.chunk;
  EXPECT_EQ(total.counts.combinations, iterations * binomial(data.genes(), 4));
  EXPECT_EQ(total.chunks, iterations * chunks_per_sweep);
  EXPECT_GE(total.candidates, iterations);  // at least one valid candidate each
  EXPECT_EQ(total.chunk_size, options.chunk);
  EXPECT_EQ(total.threads_requested, 3u);
}

// --- prefix pruning -----------------------------------------------------------

TEST(HostSweep, PruningIsThreadInvariantAtAFixedChunk) {
  // A chunk cuts against the shared floor and its own incumbent only, so
  // what it prunes depends on its bounds, never on which worker ran it or
  // when: selections and the summed pruned count repeat across thread
  // counts.
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

    HostSweepTelemetry reference;
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      HostSweepOptions options;
      options.hits = hits;
      options.threads = threads;
      options.chunk = 61;
      HostSweepTelemetry total;
      const GreedyResult swept = run_greedy(data.tumor, data.normal, config,
                                            make_host_sweep_evaluator(options, &total));
      EXPECT_EQ(swept.combinations(), serial.combinations())
          << "hits=" << hits << " threads=" << threads;
      EXPECT_EQ(total.counts.combinations,
                swept.iterations.size() * binomial(data.genes(), hits));
      if (threads == 1u) {
        reference = total;
        EXPECT_GT(total.counts.pruned, 0u) << "hits=" << hits;
        EXPECT_LT(total.counts.pruned, total.counts.combinations) << "hits=" << hits;
      } else {
        EXPECT_EQ(total.counts.pruned, reference.counts.pruned)
            << "hits=" << hits << " threads=" << threads;
      }
    }
  }
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

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    for (const std::uint64_t chunk : {128ull, 97ull}) {
      HostSweepOptions options;
      options.hits = 4;
      options.threads = threads;
      options.chunk = chunk;
      const GreedyResult swept =
          run_greedy(data.tumor, data.normal, config, make_host_sweep_evaluator(options));
      EXPECT_EQ(swept.combinations(), serial.combinations())
          << "threads=" << threads << " chunk=" << chunk;
      EXPECT_EQ(swept.uncovered_tumor, serial.uncovered_tumor);
    }
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
