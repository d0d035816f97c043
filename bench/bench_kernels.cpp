// Kernel microbenchmarks (google-benchmark): measured throughput of the
// bit-matrix primitives and enumeration kernels that everything else is
// built on. These are the numbers the performance model's word_op_rate is
// sanity-checked against, and they demonstrate the paper's claim that the
// compressed binary representation turns F-evaluation into a handful of
// AND+popcount word operations per combination.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <vector>

#include "bitmat/bitops.hpp"
#include "combinat/linearize.hpp"
#include "combinat/unrank.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "core/schemes.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
#include "data/registry.hpp"
#include "serve/cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace multihit;

Dataset kernel_dataset(std::uint32_t genes, std::uint32_t tumor_samples = 911,
                       std::uint32_t normal_samples = 520) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = tumor_samples;
  spec.normal_samples = normal_samples;
  spec.hits = 3;
  spec.num_combinations = 4;
  spec.background_rate = 0.02;
  spec.seed = 7;
  return generate_dataset(spec);
}

/// The wallbench cover2 shape: 300 genes, 1600/1000 samples, 60 planted
/// pairs.
SyntheticSpec cover2_spec() {
  SyntheticSpec spec;
  spec.genes = 300;
  spec.tumor_samples = 1600;
  spec.normal_samples = 1000;
  spec.hits = 2;
  spec.num_combinations = 60;
  spec.background_rate = 0.01;
  spec.seed = 7;
  return spec;
}

void BM_AndPopcount2(benchmark::State& state) {
  Rng rng(1);
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> a(words), b(words);
  for (auto& w : a) w = rng();
  for (auto& w : b) w = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(and_popcount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_AndPopcount2)->Arg(8)->Arg(64)->Arg(512);

void BM_UnrankTriple(benchmark::State& state) {
  Rng rng(3);
  std::uint64_t lambda = 0;
  for (auto _ : state) {
    lambda = rng.uniform(tetrahedral(19411));
    benchmark::DoNotOptimize(unrank_triple(lambda));
  }
}
BENCHMARK(BM_UnrankTriple);

void BM_UnrankTripleLogExp(benchmark::State& state) {
  Rng rng(4);
  std::uint64_t lambda = 0;
  for (auto _ : state) {
    lambda = rng.uniform(tetrahedral(19411));
    benchmark::DoNotOptimize(unrank_triple_logexp(lambda));
  }
}
BENCHMARK(BM_UnrankTripleLogExp);

// unrank_combination of λ into 3 digits, the kernel's reposition after a
// block skip on a 3x1 space: λ cycles through 1024 uniform ranks of the
// sweep4 shape's C(72, 3) threads.
void BM_UnrankFlat3(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::uint64_t> lambdas(1024);
  for (auto& lambda : lambdas) lambda = rng.uniform(tetrahedral(72));
  std::array<std::uint32_t, 3> digits{};
  std::size_t i = 0;
  for (auto _ : state) {
    unrank_combination(lambdas[i++ & 1023], std::span<std::uint32_t>(digits));
    benchmark::DoNotOptimize(digits);
  }
}
BENCHMARK(BM_UnrankFlat3);

/// Full-range kernel passes over `data`; items/s is combinations/s on one
/// thread, pruned ones included.
void time_kernel(benchmark::State& state, const Dataset& data, Scheme scheme) {
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  const u64 total = scheme_threads(scheme, data.genes());
  KernelCounts counts;
  for (auto _ : state) {
    counts = {};
    benchmark::DoNotOptimize(
        evaluate_range(data.tumor, data.normal, ctx, scheme, 0, total, kNoFloor, &counts));
  }
  state.SetItemsProcessed(state.iterations() * counts.combinations);
  state.counters["combinations"] = static_cast<double>(counts.combinations);
  state.counters["pruned"] = static_cast<double>(counts.pruned);
}

void BM_KernelFourHit3x1(benchmark::State& state) {
  time_kernel(state, kernel_dataset(static_cast<std::uint32_t>(state.range(0))), Scheme{4, 3});
}
BENCHMARK(BM_KernelFourHit3x1)->Arg(40)->Arg(60)->Unit(benchmark::kMillisecond);

// Serve-shaped 4-hit rows: 56 tumor / 44 normal samples, one word each, the
// width at which the kernel scores and folds inline on a POPCNT host.
void BM_KernelFourHit3x1Narrow(benchmark::State& state) {
  time_kernel(state, kernel_dataset(static_cast<std::uint32_t>(state.range(0)), 56, 44),
              Scheme{4, 3});
}
BENCHMARK(BM_KernelFourHit3x1Narrow)->Arg(40)->Arg(60)->Unit(benchmark::kMillisecond);

// The stop iteration of a served 4-hit solve: ACC's serve dataset spliced by
// every combination its greedy cover selects. The best combination there
// covers no tumor sample, so every combination without a normal hit ties at
// the top F and only the rank bound cuts them. One evaluation the way
// make_kernel_evaluator runs it: the 3x1 space from a greedy floor.
void BM_KernelFourHit3x1Terminal(benchmark::State& state) {
  const CancerType type = *find_cancer_type("ACC");
  const Dataset data = generate_dataset(serve::CancerCache::serve_spec(type));
  EngineConfig config;
  config.hits = type.hits;
  const Evaluator kernel = make_kernel_evaluator(type.hits);
  BitMatrix tumor;
  FContext ctx;
  (void)run_greedy(data.tumor, data.normal, config,
                   [&](const BitMatrix& spliced, const BitMatrix& normal, const FContext& at) {
                     tumor = spliced;
                     ctx = at;
                     ctx.carried = nullptr;  // the session's, gone after run_greedy
                     return kernel(spliced, normal, at);
                   });
  const Scheme scheme{type.hits, type.hits - 1};
  const u64 total = scheme_threads(scheme, tumor.genes());
  const double floor = greedy_floor(tumor, data.normal, ctx, type.hits);
  KernelCounts counts;
  EvalResult best;
  for (auto _ : state) {
    counts = {};
    best = evaluate_range(tumor, data.normal, ctx, scheme, 0, total, floor, &counts);
    benchmark::DoNotOptimize(best);
  }
  if (best.tp != 0) state.SkipWithError("ACC's last evaluation is not a stop iteration");
  state.SetItemsProcessed(state.iterations() * counts.combinations);
  state.counters["combinations"] = static_cast<double>(counts.combinations);
  state.counters["pruned"] = static_cast<double>(counts.pruned);
}
BENCHMARK(BM_KernelFourHit3x1Terminal)->Unit(benchmark::kMicrosecond);

void BM_KernelThreeHit2x1(benchmark::State& state) {
  time_kernel(state, kernel_dataset(static_cast<std::uint32_t>(state.range(0))), Scheme{3, 2});
}
BENCHMARK(BM_KernelThreeHit2x1)->Arg(60)->Arg(110)->Unit(benchmark::kMillisecond);

void BM_SerialReferenceThreeHit(benchmark::State& state) {
  const Dataset data = kernel_dataset(60);
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial_find_best(data.tumor, data.normal, ctx, 3));
  }
}
BENCHMARK(BM_SerialReferenceThreeHit)->Unit(benchmark::kMillisecond);

// greedy:0 is a random mask with ~25% of samples covered, so most words lose
// bits; greedy:1 is what a cover2 greedy iteration splices: 300 genes x 1600
// tumor samples with one planted combination's TP samples covered, so the
// mask has few holes. avx2:0 runs the scalar compress, avx2:1 (registered
// only where the CPU supports it) the PEXT one.
void BM_BitSplice(benchmark::State& state) {
  const bool greedy = state.range(0) != 0;
  const BitopsBackend backend =
      state.range(1) != 0 ? BitopsBackend::kAvx2 : BitopsBackend::kScalar;
  Dataset data;
  std::vector<std::uint64_t> covered;
  if (greedy) {
    data = generate_dataset(cover2_spec());
    covered.resize(data.tumor.words_per_row());
    data.tumor.combine_rows(data.planted.front(), covered);
  } else {
    data = kernel_dataset(200);
    Rng rng(5);
    covered.resize(data.tumor.words_per_row());
    for (auto& w : covered) w = rng() & rng();
  }
  const BitopsBackend previous = active_backend();
  set_backend(backend);
  for (auto _ : state) {
    state.PauseTiming();
    BitMatrix copy = data.tumor;
    state.ResumeTiming();
    benchmark::DoNotOptimize(copy.splice_covered(covered));
  }
  set_backend(previous);
}
BENCHMARK(BM_BitSplice)
    ->ArgNames({"greedy", "avx2"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const std::int64_t greedy : {0, 1}) {
        b->Args({greedy, 0});
        if (backend_supported(BitopsBackend::kAvx2)) b->Args({greedy, 1});
      }
    })
    ->Unit(benchmark::kMicrosecond);

// A full cover2-shaped greedy solve (cover2_spec) through
// make_host_sweep_evaluator on one thread. lazy:1 lets the Engine carry its
// thread bounds from iteration to iteration; lazy:0 withholds them, so every
// iteration scans cold. The counters give the threads each iteration
// rescans (scanned rather than skipped on a carried bound; all 300 in a
// cold iteration) and the iterations per solve.
void BM_LazyGreedyCover2(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  const Dataset data = generate_dataset(cover2_spec());
  EngineConfig config;
  config.hits = 2;
  HostSweepOptions options;
  options.hits = 2;
  options.threads = 1;
  HostSweepTelemetry telemetry;
  std::uint64_t evaluations = 0;
  const Evaluator sweep = make_host_sweep_evaluator(options, &telemetry);
  const Evaluator evaluator = [&](const BitMatrix& tumor, const BitMatrix& normal,
                                  const FContext& ctx) {
    ++evaluations;
    FContext at = ctx;
    if (!lazy) at.carried = nullptr;
    return sweep(tumor, normal, at);
  };
  std::size_t iterations = 0;
  for (auto _ : state) {
    telemetry = {};
    evaluations = 0;
    const GreedyResult result = run_greedy(data.tumor, data.normal, config, evaluator);
    iterations = result.iterations.size();
    benchmark::DoNotOptimize(iterations);
  }
  const double threads = static_cast<double>(scheme_threads(Scheme{2, 1}, data.genes()));
  state.counters["rescanned_per_iteration"] =
      threads - static_cast<double>(telemetry.counts.threads_skipped) /
                    static_cast<double>(std::max<std::uint64_t>(1, evaluations));
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_LazyGreedyCover2)->ArgName("lazy")->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The wallbench sweep4 shape: 72 genes, 120/80 samples, 5 planted
/// 4-gene combinations.
SyntheticSpec sweep4_spec() {
  SyntheticSpec spec;
  spec.genes = 72;
  spec.tumor_samples = 120;
  spec.normal_samples = 80;
  spec.hits = 4;
  spec.num_combinations = 5;
  spec.background_rate = 0.012;
  spec.seed = 7;
  return spec;
}

// One whole-space 3x1 evaluation of a sweep4 dataset the way the kernel
// evaluator runs a session's first iteration: the row-count table and the
// greedy floor are taken once outside the loop, and the kernel scans cold.
// carried:1 hands it fresh CarriedBounds (reset to cold each call), which
// it fills as it goes; carried:0 passes none.
void BM_ColdEvaluateSweep4(benchmark::State& state) {
  const bool with_bounds = state.range(0) != 0;
  const Dataset data = generate_dataset(sweep4_spec());
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  const Scheme scheme{4, 3};
  const u64 total = scheme_threads(scheme, data.genes());
  std::vector<std::uint64_t> row_counts(data.genes());
  tumor_row_counts(data.tumor, row_counts);
  const double floor = greedy_floor(data.tumor, data.normal, ctx, 4, row_counts);
  KernelCounts counts;
  for (auto _ : state) {
    CarriedBounds bounds;
    CarriedBounds* carried = with_bounds && bounds.begin(data.tumor, ctx, 4) ? &bounds : nullptr;
    counts = {};
    benchmark::DoNotOptimize(evaluate_range(data.tumor, data.normal, ctx, scheme, 0, total,
                                            floor, &counts, carried, row_counts));
  }
  state.counters["combinations"] = static_cast<double>(counts.combinations);
  state.counters["pruned"] = static_cast<double>(counts.pruned);
}
BENCHMARK(BM_ColdEvaluateSweep4)->ArgName("carried")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The `n`-th evaluation of a greedy solve of `data` at `hits` through the
/// kernel evaluator: its spliced tumor matrix, its context (without the
/// session's carried bounds, gone after the solve) and a copy of those
/// bounds as the evaluation received them.
struct CapturedEvaluation {
  BitMatrix tumor;
  FContext ctx;
  CarriedBounds carried;
  bool found = false;  // false when the solve ended before its n-th evaluation
};

CapturedEvaluation capture_evaluation(const Dataset& data, std::uint32_t hits, std::uint32_t n) {
  EngineConfig config;
  config.hits = hits;
  const Evaluator kernel = make_kernel_evaluator(hits);
  CapturedEvaluation out;
  std::uint32_t evaluations = 0;
  (void)run_greedy(data.tumor, data.normal, config,
                   [&](const BitMatrix& spliced, const BitMatrix& normal, const FContext& at) {
                     if (++evaluations == n) {
                       out.tumor = spliced;
                       out.ctx = at;
                       out.ctx.carried = nullptr;
                       if (at.carried != nullptr) out.carried = *at.carried;
                       out.found = true;
                     }
                     return kernel(spliced, normal, at);
                   });
  return out;
}

// Whole-space Scheme{hits, hits-1} evaluations of a captured warm
// evaluation, each on a fresh copy of the bounds it received (copying them is
// timed too), with the iteration's floor and row-count table taken outside
// the loop.
void time_warm_evaluation(benchmark::State& state, const CapturedEvaluation& at,
                          const BitMatrix& normal, std::uint32_t hits) {
  const Scheme scheme{hits, hits - 1};
  const u64 total = scheme_threads(scheme, at.tumor.genes());
  std::vector<std::uint64_t> row_counts(at.tumor.genes());
  tumor_row_counts(at.tumor, row_counts);
  const double floor = greedy_floor(at.tumor, normal, at.ctx, hits, row_counts);
  KernelCounts counts;
  for (auto _ : state) {
    CarriedBounds bounds = at.carried;
    if (!bounds.begin(at.tumor, at.ctx, hits)) {
      state.SkipWithError("the captured bounds do not apply");
      break;
    }
    counts = {};
    benchmark::DoNotOptimize(evaluate_range(at.tumor, normal, at.ctx, scheme, 0, total, floor,
                                            &counts, &bounds, row_counts));
  }
  state.counters["threads_skipped"] = static_cast<double>(counts.threads_skipped);
  state.counters["pruned"] = static_cast<double>(counts.pruned);
}

// The second evaluation of a sweep4 greedy solve, the first with warm
// carried bounds.
void BM_WarmEvaluateSweep4(benchmark::State& state) {
  const Dataset data = generate_dataset(sweep4_spec());
  const CapturedEvaluation at = capture_evaluation(data, 4, 2);
  if (!at.found || !at.carried.warm()) {
    state.SkipWithError("the sweep4 solve has no warm second evaluation");
    return;
  }
  time_warm_evaluation(state, at, data.normal, 4);
}
BENCHMARK(BM_WarmEvaluateSweep4)->Unit(benchmark::kMicrosecond);

// The fifth of the eight evaluations of a served LUSC job (serve_spec: 4
// hits, G = 44, 56/44 samples), past most of its planted signal: after the
// incumbent rises inside a block, the warm walk cuts whole smallest-digit
// runs of threads on the block's bound.
void BM_WarmEvaluateServed(benchmark::State& state) {
  const CancerType lusc = *find_cancer_type("LUSC");
  const Dataset data = generate_dataset(serve::CancerCache::serve_spec(lusc));
  const CapturedEvaluation at = capture_evaluation(data, lusc.hits, 5);
  if (!at.found || !at.carried.warm()) {
    state.SkipWithError("the LUSC solve has no warm fifth evaluation");
    return;
  }
  time_warm_evaluation(state, at, data.normal, lusc.hits);
}
BENCHMARK(BM_WarmEvaluateServed)->Unit(benchmark::kMicrosecond);

// One greedy_floor on a captured evaluation's tumor matrix. given:1 passes
// the evaluation's tumor_row_counts table, as the evaluators do; given:0
// has the floor count the rows itself. The and2_calls counter is the
// and_popcount calls one floor makes, dispatched or inline (G·h when every
// step scores every gene).
void time_floor(benchmark::State& state, const CapturedEvaluation& at, const BitMatrix& normal,
                std::uint32_t hits) {
  const bool given = state.range(0) != 0;
  std::vector<std::uint64_t> table(at.tumor.genes());
  tumor_row_counts(at.tumor, table);
  const std::span<const std::uint64_t> row_counts =
      given ? std::span<const std::uint64_t>(table) : std::span<const std::uint64_t>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_floor(at.tumor, normal, at.ctx, hits, row_counts));
  }
  const bool counting = set_call_counting(true);
  const BitopsCallCounts before = thread_bitops_calls();
  benchmark::DoNotOptimize(greedy_floor(at.tumor, normal, at.ctx, hits, row_counts));
  state.counters["and2_calls"] = static_cast<double>((thread_bitops_calls() - before).and2);
  set_call_counting(counting);
}

// The floor of a cover2 solve's 30th iteration (of ~60), spliced by the 29
// combinations selected before it: 25-word rows, dispatched calls.
void BM_GreedyFloorCover2(benchmark::State& state) {
  const Dataset data = generate_dataset(cover2_spec());
  const CapturedEvaluation at = capture_evaluation(data, 2, 30);
  if (!at.found) {
    state.SkipWithError("the cover2 solve ended before its 30th iteration");
    return;
  }
  time_floor(state, at, data.normal, 2);
}
BENCHMARK(BM_GreedyFloorCover2)->ArgName("given")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The floor of a sweep4 solve's second iteration: 2-word rows, which the
// AVX2 backend ANDs and counts inline.
void BM_GreedyFloorSweep4(benchmark::State& state) {
  const Dataset data = generate_dataset(sweep4_spec());
  const CapturedEvaluation at = capture_evaluation(data, 4, 2);
  if (!at.found) {
    state.SkipWithError("the sweep4 solve ended before its second iteration");
    return;
  }
  time_floor(state, at, data.normal, 4);
}
BENCHMARK(BM_GreedyFloorSweep4)->ArgName("given")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Dataset generation against its floor. BM_GenerateDatasetCover2 is one
// generate_dataset call on the cover2 spec, as a wallbench cover2 set-up
// builds six of them. BM_XoshiroFloor is that call's background work alone:
// the same 300 x 2,600 = 780k draws from the same seeded xoshiro256**
// stream, written out locally and inline, each turned into a bit by
// bernoulli's integer test and ORed into 64-sample words. items/s is
// draws/s in both.
void BM_GenerateDatasetCover2(benchmark::State& state) {
  const SyntheticSpec spec = cover2_spec();
  for (auto _ : state) benchmark::DoNotOptimize(generate_dataset(spec));
  state.SetItemsProcessed(state.iterations() * spec.genes *
                          (std::int64_t{spec.tumor_samples} + spec.normal_samples));
}
BENCHMARK(BM_GenerateDatasetCover2)->Unit(benchmark::kMillisecond);

void BM_XoshiroFloor(benchmark::State& state) {
  const SyntheticSpec spec = cover2_spec();
  const std::uint64_t threshold = Rng::bernoulli_threshold(spec.background_rate);
  std::vector<std::uint64_t> words(
      matrix_words(spec.genes, spec.tumor_samples) + matrix_words(spec.genes, spec.normal_samples));
  for (auto _ : state) {
    std::uint64_t sm = spec.seed;
    std::array<std::uint64_t, 4> s{};
    for (auto& x : s) x = splitmix64(sm);
    std::fill(words.begin(), words.end(), 0);
    std::uint64_t* out = words.data();
    for (std::uint32_t g = 0; g < spec.genes; ++g) {
      for (const std::uint32_t samples : {spec.tumor_samples, spec.normal_samples}) {
        for (std::uint32_t base = 0; base < samples; base += 64) {
          const std::uint32_t n = std::min<std::uint32_t>(64, samples - base);
          std::uint64_t word = 0;
          for (std::uint32_t b = 0; b < n; ++b) {
            const std::uint64_t x = std::rotl(s[1] * 5, 7) * 9;
            const std::uint64_t t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = std::rotl(s[3], 45);
            word |= static_cast<std::uint64_t>((x >> 11) < threshold) << b;
          }
          *out++ |= word;
        }
      }
    }
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * spec.genes *
                          (std::int64_t{spec.tumor_samples} + spec.normal_samples));
}
BENCHMARK(BM_XoshiroFloor)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
