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

Dataset kernel_dataset(std::uint32_t genes) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 911;
  spec.normal_samples = 520;
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

void BM_KernelFourHit3x1(benchmark::State& state) {
  const Dataset data = kernel_dataset(static_cast<std::uint32_t>(state.range(0)));
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  const u64 total = scheme_threads(Scheme{4, 3}, data.genes());
  std::uint64_t combos = 0;
  for (auto _ : state) {
    KernelCounts counts;
    benchmark::DoNotOptimize(evaluate_range(data.tumor, data.normal, ctx, Scheme{4, 3}, 0,
                                            total, kNoFloor, &counts));
    combos = counts.combinations;
  }
  state.SetItemsProcessed(state.iterations() * combos);
  state.counters["combinations"] = static_cast<double>(combos);
}
BENCHMARK(BM_KernelFourHit3x1)->Arg(40)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_KernelThreeHit2x1(benchmark::State& state) {
  const Dataset data = kernel_dataset(static_cast<std::uint32_t>(state.range(0)));
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  const u64 total = scheme_threads(Scheme{3, 2}, data.genes());
  std::uint64_t combos = 0;
  for (auto _ : state) {
    KernelCounts counts;
    benchmark::DoNotOptimize(evaluate_range(data.tumor, data.normal, ctx, Scheme{3, 2}, 0,
                                            total, kNoFloor, &counts));
    combos = counts.combinations;
  }
  state.SetItemsProcessed(state.iterations() * combos);
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

void BM_BitSplice(benchmark::State& state) {
  const Dataset data = kernel_dataset(200);
  Rng rng(5);
  std::vector<std::uint64_t> covered(data.tumor.words_per_row());
  for (auto& w : covered) w = rng() & rng();  // ~25% of samples covered
  for (auto _ : state) {
    state.PauseTiming();
    BitMatrix copy = data.tumor;
    state.ResumeTiming();
    benchmark::DoNotOptimize(copy.splice_covered(covered));
  }
}
BENCHMARK(BM_BitSplice)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
