#include "sched/memaware.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/model.hpp"
#include "combinat/binomial.hpp"
#include "data/generator.hpp"

namespace multihit {
namespace {

TEST(MemAware, WeightsFollowKernelFormulas) {
  const MemOpts both{.prefetch_i = true, .prefetch_j = true};
  const MemOpts only_i{.prefetch_i = true};
  const MemOpts none{};
  // 4-hit 3x1, full prefetch: 1 row/combination + 3 setup rows/thread.
  EXPECT_EQ(memory_cost_weights(4, both).per_combination, 1u);
  EXPECT_EQ(memory_cost_weights(4, both).per_thread, 3u);
  EXPECT_EQ(memory_cost_weights(4, only_i).per_combination, 3u);
  EXPECT_EQ(memory_cost_weights(4, only_i).per_thread, 1u);
  EXPECT_EQ(memory_cost_weights(4, none).per_combination, 4u);
  EXPECT_EQ(memory_cost_weights(4, none).per_thread, 0u);
  EXPECT_EQ(memory_cost_weights(5, both).per_thread, 4u);
  EXPECT_EQ(memory_cost_weights(2, both).per_combination, 1u);
  EXPECT_EQ(memory_cost_weights(2, both).per_thread, 1u);
}

TEST(MemAware, ReweightedModelTotals) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 30);
  const auto costed = model.reweighted(1, 3);
  EXPECT_EQ(costed.total_threads(), model.total_threads());
  // cost total = combos + 3 * (threads with positive work).
  u64 positive = 0;
  for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
    if (model.work_at(lambda) > 0) ++positive;
  }
  EXPECT_TRUE(costed.total_work() ==
              model.total_work() + static_cast<u128>(3) * positive);
}

TEST(MemAware, ZeroWorkThreadsStayFree) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 20);
  const auto costed = model.reweighted(1, 5);
  EXPECT_EQ(costed.work_at(costed.total_threads() - 1), 0u);  // k = G-1 level
}

TEST(MemAware, ScheduleCoversExactly) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 60);
  const auto schedule = memaware_schedule(model, 30, {1, 3});
  ASSERT_EQ(schedule.size(), 30u);
  EXPECT_EQ(schedule.front().begin, 0u);
  for (std::size_t p = 1; p < schedule.size(); ++p) {
    EXPECT_EQ(schedule[p].begin, schedule[p - 1].end);
  }
  EXPECT_EQ(schedule.back().end, model.total_threads());
}

TEST(MemAware, BalancesTrafficBetterThanPlainEquiArea) {
  // The tail partitions of plain EA hold many short threads whose setup
  // traffic EA ignores; the memory-aware weights must equalize modeled cost.
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 300);
  const MemoryCostWeights weights{1, 3};
  const auto costed = model.reweighted(weights.per_combination, weights.per_thread);
  const std::uint32_t units = 48;

  const auto plain = equiarea_schedule(model, units);
  const auto aware = memaware_schedule(model, units, weights);

  const auto plain_cost = schedule_imbalance(costed, plain);
  const auto aware_cost = schedule_imbalance(costed, aware);
  EXPECT_LT(aware_cost.imbalance, plain_cost.imbalance);
  EXPECT_LT(aware_cost.imbalance, 1.02);
}

TEST(MemAware, ImprovesModeledTailAtScale) {
  // At 1000 nodes on BRCA, the slowest GPU under plain EA is the tail
  // (setup-heavy) partition; memory-aware scheduling shrinks the spread of
  // modeled GPU times.
  SummitConfig config;
  config.nodes = 1000;
  config.gpu_jitter = 0.0;  // isolate the scheduling effect
  ModelInputs inputs;
  inputs.first_iteration_only = true;

  auto spread = [&](SchedulerKind kind) {
    ModelInputs in = inputs;
    in.scheduler = kind;
    const auto run = model_cluster_run(config, in);
    double lo = 1e30, hi = 0.0;
    for (const auto& g : run.iterations.front().gpus) {
      lo = std::min(lo, g.time);
      hi = std::max(hi, g.time);
    }
    return hi / lo;
  };

  const double plain = spread(SchedulerKind::kEquiArea);
  const double aware = spread(SchedulerKind::kMemoryAware);
  EXPECT_LT(aware, plain);
}

TEST(MemAware, DistributedResultsUnchanged) {
  // Scheduling must never change *what* is found, only when.
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 60;
  spec.normal_samples = 40;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.seed = 515;
  const Dataset data = generate_dataset(spec);
  SummitConfig config;
  config.nodes = 3;
  DistributedOptions ea;
  DistributedOptions aware;
  aware.scheduler = SchedulerKind::kMemoryAware;
  const auto a = ClusterRunner(config).run(data, ea);
  const auto b = ClusterRunner(config).run(data, aware);
  ASSERT_EQ(a.greedy.iterations.size(), b.greedy.iterations.size());
  for (std::size_t i = 0; i < a.greedy.iterations.size(); ++i) {
    EXPECT_EQ(a.greedy.iterations[i].genes, b.greedy.iterations[i].genes);
  }
}

}  // namespace
}  // namespace multihit
