// Kernel microbenchmarks (google-benchmark): measured throughput of the
// bit-matrix primitives and enumeration kernels that everything else is
// built on. These are the numbers the performance model's word_op_rate is
// sanity-checked against, and they demonstrate the paper's claim that the
// compressed binary representation turns F-evaluation into a handful of
// AND+popcount word operations per combination.

#include <benchmark/benchmark.h>

#include "bitmat/bitops.hpp"
#include "combinat/linearize.hpp"
#include "core/schemes.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
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

// greedy:0 is a random mask with ~25% of samples covered (the worst case for
// the splice's runs); greedy:1 is what a cover2 greedy iteration splices:
// 300 genes x 1600 tumor samples with one planted combination's TP samples
// covered, so the mask has few holes.
void BM_BitSplice(benchmark::State& state) {
  const bool greedy = state.range(0) != 0;
  Dataset data;
  std::vector<std::uint64_t> covered;
  if (greedy) {
    SyntheticSpec spec;
    spec.genes = 300;
    spec.tumor_samples = 1600;
    spec.normal_samples = 1000;
    spec.hits = 2;
    spec.num_combinations = 60;
    spec.background_rate = 0.01;
    spec.seed = 7;
    data = generate_dataset(spec);
    covered.resize(data.tumor.words_per_row());
    data.tumor.combine_rows(data.planted.front(), covered);
  } else {
    data = kernel_dataset(200);
    Rng rng(5);
    covered.resize(data.tumor.words_per_row());
    for (auto& w : covered) w = rng() & rng();
  }
  for (auto _ : state) {
    state.PauseTiming();
    BitMatrix copy = data.tumor;
    state.ResumeTiming();
    benchmark::DoNotOptimize(copy.splice_covered(covered));
  }
}
BENCHMARK(BM_BitSplice)->ArgName("greedy")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
