#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include "combinat/binomial.hpp"

namespace multihit {
namespace {

class WorkloadModel4 : public ::testing::TestWithParam<Scheme> {};

TEST_P(WorkloadModel4, TotalsMatchCombinatorics) {
  const std::uint32_t G = 50;
  const auto model = WorkloadModel::for_scheme(GetParam(), G);
  EXPECT_EQ(model.total_threads(), scheme_threads(GetParam(), G));
  EXPECT_TRUE(model.total_work() == static_cast<u128>(binomial(G, 4)));
}

TEST_P(WorkloadModel4, WorkAtMatchesPerThreadFormula) {
  const std::uint32_t G = 30;
  const auto model = WorkloadModel::for_scheme(GetParam(), G);
  for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
    ASSERT_EQ(model.work_at(lambda), scheme_thread_work(GetParam(), G, lambda))
        << "lambda=" << lambda;
  }
}

TEST_P(WorkloadModel4, PrefixWorkIsRunningSum) {
  const std::uint32_t G = 25;
  const auto model = WorkloadModel::for_scheme(GetParam(), G);
  u128 running = 0;
  for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
    ASSERT_TRUE(model.prefix_work(lambda) == running) << "lambda=" << lambda;
    running += model.work_at(lambda);
  }
  EXPECT_TRUE(model.prefix_work(model.total_threads()) == running);
  EXPECT_TRUE(model.total_work() == running);
}

TEST_P(WorkloadModel4, LambdaForPrefixIsInverse) {
  const std::uint32_t G = 25;
  const auto model = WorkloadModel::for_scheme(GetParam(), G);
  // For every target, the returned λ must be the smallest with
  // prefix_work(λ) >= target.
  const u128 total = model.total_work();
  for (u128 target = 0; target <= total; target += 13) {
    const u64 lambda = model.lambda_for_prefix(target);
    EXPECT_TRUE(model.prefix_work(lambda) >= target);
    if (lambda > 0) {
      EXPECT_TRUE(model.prefix_work(lambda - 1) < target);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, WorkloadModel4,
                         ::testing::Values(Scheme{4, 1}, Scheme{4, 2}, Scheme{4, 3},
                                           Scheme{4, 4}),
                         [](const auto& info) { return scheme_name(info.param); });

class WorkloadModel3 : public ::testing::TestWithParam<Scheme> {};

TEST_P(WorkloadModel3, TotalsMatchCombinatorics) {
  const std::uint32_t G = 50;
  const auto model = WorkloadModel::for_scheme(GetParam(), G);
  EXPECT_EQ(model.total_threads(), scheme_threads(GetParam(), G));
  EXPECT_TRUE(model.total_work() == static_cast<u128>(binomial(G, 3)));
}

TEST_P(WorkloadModel3, WorkAtMatchesPerThreadFormula) {
  const std::uint32_t G = 30;
  const auto model = WorkloadModel::for_scheme(GetParam(), G);
  for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
    ASSERT_EQ(model.work_at(lambda), scheme_thread_work(GetParam(), G, lambda));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, WorkloadModel3,
                         ::testing::Values(Scheme{3, 1}, Scheme{3, 2}, Scheme{3, 3}),
                         [](const auto& info) { return scheme_name(info.param); });

TEST(WorkloadModel, PaperScale3x1IsCheap) {
  // The O(G) level construction must handle G = 19411 instantly and report
  // the paper-scale totals exactly.
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 19411);
  EXPECT_EQ(model.total_threads(), binomial(19411, 3));
  EXPECT_TRUE(model.total_work() == *binomial128(19411, 4));
  EXPECT_EQ(model.levels().size(), 19409u);
  // First thread's work is G-3; the last level's is 0.
  EXPECT_EQ(model.work_at(0), 19408u);
  EXPECT_EQ(model.work_at(model.total_threads() - 1), 0u);
}

TEST(WorkloadModel, ThreadWorkSpreadFig2) {
  // Fig. 2's message at G = 10: the 2x2 spread is C(G-2,2)..0 over C(G,2)
  // threads; 3x1 spreads G-3..0 over C(G,3) threads.
  const auto m22 = WorkloadModel::for_scheme(Scheme{4, 2}, 10);
  const auto m31 = WorkloadModel::for_scheme(Scheme{4, 3}, 10);
  EXPECT_EQ(m22.work_at(0), 28u);  // C(8,2)
  EXPECT_EQ(m31.work_at(0), 7u);   // G-3
  EXPECT_EQ(m22.total_threads(), 45u);
  EXPECT_EQ(m31.total_threads(), 120u);
}

}  // namespace
}  // namespace multihit
