#include "gpusim/smsim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gpusim/perfmodel.hpp"

namespace multihit {
namespace {

SmConfig fast_config() {
  SmConfig config;
  config.memory_latency = 50;  // keep cycle counts small in tests
  config.max_outstanding_requests = 16;
  return config;
}

TEST(SmSim, EmptyInput) {
  const SmResult r = simulate_sm(fast_config(), {});
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.issued_instructions, 0u);
}

TEST(SmSim, PureComputeRunsAtFullIssue) {
  const std::vector<WarpWork> warps{{1000, 0}};
  const SmResult r = simulate_sm(fast_config(), warps);
  EXPECT_EQ(r.issued_instructions, 1000u);
  EXPECT_NEAR(r.issue_efficiency, 1.0, 0.01);
  EXPECT_EQ(r.stall_memory_dependency, 0u);
  EXPECT_EQ(r.stall_memory_throttle, 0u);
}

TEST(SmSim, SingleWarpMemoryIsLatencyBound) {
  SmConfig config = fast_config();
  const std::vector<WarpWork> warps{{0, 20}};
  const SmResult r = simulate_sm(config, warps);
  // Each request costs ~latency cycles of exposure with nothing to overlap.
  EXPECT_GE(r.cycles, 20u * config.memory_latency);
  EXPECT_GT(r.stall_memory_dependency, r.cycles / 2);
  EXPECT_NEAR(r.request_rate, 1.0 / config.memory_latency, 0.01);
}

TEST(SmSim, ManyWarpsHideLatency) {
  // The occupancy law from first principles: request throughput rises with
  // resident warps until the outstanding-request cap saturates it.
  SmConfig config = fast_config();
  auto rate = [&](std::size_t warp_count) {
    std::vector<WarpWork> warps(warp_count, WarpWork{0, 50});
    return simulate_sm(config, warps).request_rate;
  };
  const double r1 = rate(1);
  const double r4 = rate(4);
  const double r16 = rate(16);
  EXPECT_GT(r4, 3.0 * r1);
  EXPECT_GT(r16, 3.0 * r4);
  // Cap: max_outstanding / latency requests per cycle.
  const double ceiling =
      static_cast<double>(config.max_outstanding_requests) / config.memory_latency;
  EXPECT_LE(rate(64), ceiling * 1.02);
  EXPECT_GT(rate(64), ceiling * 0.8);
}

TEST(SmSim, ThrottleAppearsWhenQueueSaturates) {
  SmConfig config = fast_config();
  config.max_outstanding_requests = 4;  // tiny queue
  std::vector<WarpWork> warps(32, WarpWork{0, 30});
  const SmResult r = simulate_sm(config, warps);
  EXPECT_GT(r.stall_memory_throttle, 0u);
}

TEST(SmSim, ComputeOverlapsMemory) {
  // Mixed warps: compute from other warps fills memory stall cycles, so the
  // mix finishes far faster than the sum of isolated runs.
  SmConfig config = fast_config();
  std::vector<WarpWork> mixed(16, WarpWork{500, 10});
  const SmResult r = simulate_sm(config, mixed);
  const double total_instr = 16.0 * 510.0;
  EXPECT_GT(r.issue_efficiency, 0.5);
  EXPECT_LT(static_cast<double>(r.cycles), 2.5 * total_instr);
}

TEST(SmSim, AccountingIsConsistent) {
  SmConfig config = fast_config();
  std::vector<WarpWork> warps(8, WarpWork{100, 20});
  const SmResult r = simulate_sm(config, warps);
  const std::uint64_t accounted = r.issued_instructions + r.stall_memory_dependency +
                                  r.stall_memory_throttle + r.stall_execution_dependency;
  // Every cycle either issues or is attributed to exactly one stall class.
  EXPECT_EQ(accounted, r.cycles);
  EXPECT_EQ(r.issued_instructions, 8u * 120u);
}

TEST(SmSim, BlockSchedulingProcessesAllWarps) {
  // More warps than residency: later warps run as earlier ones retire.
  SmConfig config = fast_config();
  config.max_resident_warps = 4;
  std::vector<WarpWork> warps(20, WarpWork{50, 2});
  const SmResult r = simulate_sm(config, warps);
  EXPECT_EQ(r.issued_instructions, 20u * 52u);
}

TEST(SmSim, DeterministicAcrossRuns) {
  SmConfig config = fast_config();
  std::vector<WarpWork> warps(12, WarpWork{37, 11});
  const SmResult a = simulate_sm(config, warps);
  const SmResult b = simulate_sm(config, warps);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.issued_instructions, b.issued_instructions);
  EXPECT_EQ(a.stall_memory_dependency, b.stall_memory_dependency);
}

TEST(SmSim, CrossValidatesAnalyticLatencyHidingShape) {
  // The analytic model uses mem_eff = floor + (1-floor)·occ^kappa. The
  // simulated request rate, normalized to its saturated value, must be
  // monotone increasing and concave in warp count — the same shape.
  SmConfig config = fast_config();
  std::vector<double> rates;
  for (const std::size_t w : {2u, 8u, 32u}) {
    std::vector<WarpWork> warps(w, WarpWork{0, 40});
    rates.push_back(simulate_sm(config, warps).request_rate);
  }
  EXPECT_LT(rates[0], rates[1]);
  EXPECT_LT(rates[1], rates[2]);
  // Concavity: quadrupling warps less than quadruples the rate near the cap.
  EXPECT_LT(rates[2] / rates[1], 4.0);
}

TEST(SmSim, StallAttributionMatchesAnalyticTaxonomyOrdering) {
  // Crosscheck for the gpu.stall_* metrics' stall taxonomy: on the
  // tab_sm_latency_hiding sweep (V100-shaped SM, the 3x1 kernels' ~24-ops-
  // per-load mix), the cycle-level scheduler and the analytic
  // stall_breakdown must agree on the SHAPE of Fig. 6c — memory-dependency
  // stalls dominate at low occupancy and fall monotonically as resident
  // warps rise.
  SmConfig config;  // paper-scale latency, not fast_config()
  config.memory_latency = 400;
  config.max_outstanding_requests = 64;
  const DeviceSpec spec = DeviceSpec::v100();

  const std::vector<std::size_t> warp_counts{2, 8, 32, 64};
  std::vector<double> simulated, analytic;
  for (const std::size_t w : warp_counts) {
    std::vector<WarpWork> warps(w, WarpWork{4800, 200});
    const SmResult r = simulate_sm(config, warps);
    simulated.push_back(static_cast<double>(r.stall_memory_dependency) /
                        static_cast<double>(r.cycles));

    // The analytic timing at matching occupancy (w warps on each of the 80
    // SMs) and the same per-thread op/traffic mix.
    KernelStats stats;
    const std::uint64_t threads =
        static_cast<std::uint64_t>(w) * spec.warp_size * spec.sm_count;
    stats.word_ops = threads * 4800;
    stats.global_words = threads * 200;
    stats.combinations = threads;
    const GpuTiming t = model_gpu_time(spec, stats, threads);
    EXPECT_NEAR(t.occupancy, static_cast<double>(w) / 64.0, 1e-12);
    analytic.push_back(stall_breakdown(t).memory_dependency);
  }

  for (std::size_t i = 0; i + 1 < warp_counts.size(); ++i) {
    EXPECT_GT(simulated[i], simulated[i + 1]) << "simulated not decreasing at " << i;
    EXPECT_GT(analytic[i], analytic[i + 1]) << "analytic not decreasing at " << i;
  }
  // At starved occupancy both attribute the majority of cycles to memory
  // dependency — the paper's diagnosis of the slow 2x2 GPUs.
  EXPECT_GT(simulated.front(), 0.5);
  EXPECT_GT(analytic.front(), 0.5);
}

}  // namespace
}  // namespace multihit
