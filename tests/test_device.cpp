#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include "core/serial.hpp"
#include "data/generator.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

struct Fixture {
  Dataset data;
  FContext ctx;
};

Fixture make_fixture(std::uint32_t genes, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 80;
  spec.normal_samples = 60;
  spec.hits = 4;
  spec.num_combinations = 2;
  spec.background_rate = 0.04;
  spec.seed = seed;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

TEST(ParallelReduceMax, MatchesLinearScan) {
  Rng rng(3);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 100u, 513u}) {
    std::vector<EvalResult> candidates(n);
    EvalResult linear;
    for (std::size_t i = 0; i < n; ++i) {
      candidates[i].valid = true;
      candidates[i].f = rng.uniform_double();
      candidates[i].combo_rank = rng.uniform(1000);
      linear = merge_results(linear, candidates[i]);
    }
    const EvalResult tree = parallel_reduce_max(candidates);
    EXPECT_EQ(tree.combo_rank, linear.combo_rank) << "n=" << n;
    EXPECT_DOUBLE_EQ(tree.f, linear.f);
  }
}

TEST(ParallelReduceMax, EmptyAndInvalid) {
  EXPECT_FALSE(parallel_reduce_max({}).valid);
  std::vector<EvalResult> all_invalid(5);
  EXPECT_FALSE(parallel_reduce_max(all_invalid).valid);
}

TEST(GpuDevice, FullPartitionMatchesSerial) {
  const auto f = make_fixture(24, 88);
  const GpuDevice device;
  const Partition whole{0, scheme_threads(Scheme{4, 3}, 24)};
  const auto run = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3}, whole,
                              MemOpts{.prefetch_i = true, .prefetch_j = true});
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 4);
  ASSERT_TRUE(run.best.valid);
  EXPECT_EQ(run.best.combo_rank, serial.combo_rank);
  EXPECT_DOUBLE_EQ(run.best.f, serial.f);
}

TEST(GpuDevice, BlockCountMatchesBlockSize) {
  const auto f = make_fixture(24, 89);
  const GpuDevice device;
  const u64 total = scheme_threads(Scheme{4, 3}, 24);  // C(24,3) = 2024
  const auto run =
      device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3}, {0, total});
  EXPECT_EQ(run.blocks, (total + 511) / 512);
  // §III-E: candidate list is one 20-byte struct per block, a 512-fold
  // reduction versus one per thread.
  EXPECT_EQ(run.candidate_bytes, run.blocks * kCandidateBytes);
  EXPECT_LT(run.candidate_bytes, total * kCandidateBytes / 400);
}

TEST(GpuDevice, SplitAcrossDevicesMatchesSingleDevice) {
  // Six devices, each a sixth of the space: merged winner identical.
  const auto f = make_fixture(22, 90);
  const GpuDevice device;
  const u64 total = scheme_threads(Scheme{4, 3}, 22);
  const auto whole = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3},
                                {0, total});
  EvalResult merged;
  for (u64 d = 0; d < 6; ++d) {
    const auto part = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3},
                                 {total * d / 6, total * (d + 1) / 6});
    merged = merge_results(merged, part.best);
  }
  EXPECT_EQ(merged.combo_rank, whole.best.combo_rank);
}

TEST(GpuDevice, ThreeHitPipelineMatchesSerial) {
  const auto f = make_fixture(30, 91);
  const GpuDevice device;
  const auto run = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{3, 2},
                              {0, scheme_threads(Scheme{3, 2}, 30)});
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 3);
  EXPECT_EQ(run.best.combo_rank, serial.combo_rank);
}

TEST(GpuDevice, EmptyPartition) {
  const auto f = make_fixture(20, 92);
  const GpuDevice device;
  const auto run = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3}, {5, 5});
  EXPECT_FALSE(run.best.valid);
  EXPECT_EQ(run.blocks, 0u);
  EXPECT_EQ(run.stats.combinations, 0u);
}

TEST(GpuDevice, TimingIsPopulated) {
  const auto f = make_fixture(20, 93);
  const GpuDevice device;
  const auto run = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3},
                              {0, scheme_threads(Scheme{4, 3}, 20)});
  EXPECT_GT(run.timing.time, 0.0);
  EXPECT_GT(run.stats.word_ops, 0u);
  EXPECT_GT(run.timing.dram_throughput, 0.0);
}

TEST(GpuDevice, LaunchStatsAreSchemeStatsOverThePartition) {
  // One closed-form call prices the whole launch, however many 512-thread
  // blocks the partition spans, under every MemOpts.
  const auto f = make_fixture(26, 95);
  const GpuDevice device;
  for (const Scheme scheme : {Scheme{3, 3}, Scheme{4, 3}, Scheme{5, 3}}) {
    const Partition part{37, scheme_threads(scheme, 26) - 11};
    for (const MemOpts opts : {MemOpts{}, MemOpts{.prefetch_i = true},
                               MemOpts{.prefetch_i = true, .prefetch_j = true}}) {
      const auto run = device.run(f.data.tumor, f.data.normal, f.ctx, scheme, part, opts);
      const KernelStats modeled =
          scheme_stats(scheme, 26, part.begin, part.end, opts, f.data.tumor.words_per_row(),
                       f.data.normal.words_per_row());
      EXPECT_GT(run.blocks, 1u);
      EXPECT_EQ(run.stats.combinations, modeled.combinations);
      EXPECT_EQ(run.stats.word_ops, modeled.word_ops);
      EXPECT_EQ(run.stats.global_words, modeled.global_words);
      EXPECT_EQ(run.stats.local_words, modeled.local_words);
      EXPECT_EQ(run.stats.distinct_rows, modeled.distinct_rows);
    }
  }
}

TEST(GpuDevice, PrefetchReducesModeledTime) {
  // The Fig. 5 mechanism: MemOpt2 cuts global traffic, so modeled time for
  // the same partition drops.
  const auto f = make_fixture(26, 94);
  const GpuDevice device;
  const Partition whole{0, scheme_threads(Scheme{4, 3}, 26)};
  const auto plain =
      device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3}, whole, MemOpts{});
  const auto opt = device.run(f.data.tumor, f.data.normal, f.ctx, Scheme{4, 3}, whole,
                              MemOpts{.prefetch_i = true, .prefetch_j = true});
  EXPECT_LT(opt.stats.global_words, plain.stats.global_words);
  EXPECT_LT(opt.timing.time, plain.timing.time);
  EXPECT_EQ(opt.best.combo_rank, plain.best.combo_rank);
}

}  // namespace
}  // namespace multihit
