#include "gpusim/perfmodel.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace multihit {
namespace {

KernelStats sample_stats(std::uint64_t ops, std::uint64_t global) {
  KernelStats s;
  s.combinations = ops / 24;
  s.word_ops = ops;
  s.global_words = global;
  return s;
}

TEST(PerfModel, OccupancySaturates) {
  const DeviceSpec spec = DeviceSpec::v100();
  const auto low = model_gpu_time(spec, sample_stats(1e9, 1e9), 1000);
  const auto full = model_gpu_time(spec, sample_stats(1e9, 1e9), spec.resident_capacity());
  const auto over = model_gpu_time(spec, sample_stats(1e9, 1e9), 10 * spec.resident_capacity());
  EXPECT_LT(low.occupancy, 0.01);
  EXPECT_DOUBLE_EQ(full.occupancy, 1.0);
  EXPECT_DOUBLE_EQ(over.occupancy, 1.0);
}

TEST(PerfModel, LowOccupancyIsSlower) {
  // The §IV-C effect: same traffic, fewer resident threads => poorer latency
  // hiding => longer memory time.
  const DeviceSpec spec = DeviceSpec::v100();
  const auto starved = model_gpu_time(spec, sample_stats(1e8, 1e10), 2000);
  const auto saturated = model_gpu_time(spec, sample_stats(1e8, 1e10), 1u << 20);
  EXPECT_GT(starved.memory_time, 2.0 * saturated.memory_time);
  EXPECT_TRUE(starved.memory_bound);
}

TEST(PerfModel, RooflineTransition) {
  // Heavy traffic => memory bound; heavy ops with light traffic => compute
  // bound (the Fig. 6 transition past GPU #500).
  const DeviceSpec spec = DeviceSpec::v100();
  const auto memory = model_gpu_time(spec, sample_stats(1e8, 1e11), 1u << 21);
  const auto compute = model_gpu_time(spec, sample_stats(1e12, 1e8), 1u << 21);
  EXPECT_TRUE(memory.memory_bound);
  EXPECT_FALSE(compute.memory_bound);
  EXPECT_GT(memory.time, 0.0);
  EXPECT_GT(compute.time, 0.0);
}

TEST(PerfModel, TimeScalesLinearlyWithWork) {
  const DeviceSpec spec = DeviceSpec::v100();
  const auto one = model_gpu_time(spec, sample_stats(1e10, 1e10), 1u << 21);
  const auto two = model_gpu_time(spec, sample_stats(2e10, 2e10), 1u << 21);
  EXPECT_NEAR(two.time / one.time, 2.0, 0.05);  // overheads are small here
}

TEST(PerfModel, ThroughputNeverExceedsPeak) {
  const DeviceSpec spec = DeviceSpec::v100();
  for (const std::uint64_t threads : {1000ull, 100000ull, 1ull << 22}) {
    const auto t = model_gpu_time(spec, sample_stats(1e9, 1e11), threads);
    EXPECT_LE(t.dram_throughput, spec.dram_bandwidth * 1.0001);
    EXPECT_GT(t.dram_throughput, 0.0);
  }
}

TEST(PerfModel, LaunchOverheadPresent) {
  const DeviceSpec spec = DeviceSpec::v100();
  const auto t = model_gpu_time(spec, KernelStats{}, 1);
  EXPECT_GE(t.time, 2.0 * spec.kernel_launch_overhead);
}

TEST(PerfModel, StallBreakdownSumsToOne) {
  const DeviceSpec spec = DeviceSpec::v100();
  for (const std::uint64_t threads : {1000ull, 1ull << 18, 1ull << 22}) {
    for (const auto& [ops, global] : {std::pair{1e8, 1e11}, {1e12, 1e8}, {1e10, 1e10}}) {
      const auto timing = model_gpu_time(spec, sample_stats(ops, global), threads);
      const auto s = stall_breakdown(timing);
      EXPECT_NEAR(
          s.memory_dependency + s.memory_throttle + s.execution_dependency + s.other, 1.0,
          1e-9);
      EXPECT_GE(s.memory_dependency, 0.0);
      EXPECT_GE(s.memory_throttle, 0.0);
      EXPECT_GE(s.execution_dependency, 0.0);
      EXPECT_GE(s.other, 0.0);
    }
  }
}

TEST(PerfModel, MemoryDependencyDominatesWhenStarved) {
  // Fig. 6c: stalls on memory dependency are the largest contributor for the
  // low-occupancy memory-bound GPUs.
  const DeviceSpec spec = DeviceSpec::v100();
  const auto starved = model_gpu_time(spec, sample_stats(1e8, 1e11), 2000);
  const auto s = stall_breakdown(starved);
  EXPECT_GT(s.memory_dependency, s.memory_throttle);
  EXPECT_GT(s.memory_dependency, s.execution_dependency);
  EXPECT_GT(s.memory_dependency, 0.4);
}

TEST(PerfModel, StallBreakdownIsAPartitionOnRandomizedTimings) {
  // Property: for ANY GpuTiming — including adversarial hand-built ones
  // that no model run produces (negative times, occupancy outside [0,1]) —
  // the taxonomy stays a partition: every fraction in [0,1] and the four
  // summing to 1 (+-1e-9).
  Rng rng(0xF16C5ULL);
  for (int trial = 0; trial < 2000; ++trial) {
    GpuTiming t;
    t.compute_time = (rng.uniform_double() - 0.25) * 1e3;   // 25% negative
    t.memory_time = (rng.uniform_double() - 0.25) * 1e3;
    t.occupancy = rng.uniform_double() * 2.0 - 0.5;         // strays past [0,1]
    t.mem_efficiency = rng.uniform_double() * 2.0 - 0.5;
    t.memory_bound = rng.bernoulli(0.5);
    t.time = t.compute_time + t.memory_time;
    const auto s = stall_breakdown(t);
    const double sum =
        s.memory_dependency + s.memory_throttle + s.execution_dependency + s.other;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "trial " << trial;
    for (const double f :
         {s.memory_dependency, s.memory_throttle, s.execution_dependency, s.other}) {
      EXPECT_GE(f, 0.0) << "trial " << trial;
      EXPECT_LE(f, 1.0) << "trial " << trial;
    }
  }
}

TEST(PerfModel, ExecutionDependencyRisesWhenComputeBound) {
  const DeviceSpec spec = DeviceSpec::v100();
  const auto memory = stall_breakdown(model_gpu_time(spec, sample_stats(1e8, 1e11), 1u << 22));
  const auto compute = stall_breakdown(model_gpu_time(spec, sample_stats(1e12, 1e8), 1u << 22));
  EXPECT_GT(compute.execution_dependency, memory.execution_dependency);
}

}  // namespace
}  // namespace multihit
