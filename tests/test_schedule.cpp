#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "combinat/binomial.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

void expect_contiguous_cover(const std::vector<Partition>& schedule, u64 total_threads) {
  ASSERT_FALSE(schedule.empty());
  EXPECT_EQ(schedule.front().begin, 0u);
  for (std::size_t p = 1; p < schedule.size(); ++p) {
    EXPECT_EQ(schedule[p].begin, schedule[p - 1].end) << "gap/overlap at unit " << p;
  }
  EXPECT_EQ(schedule.back().end, total_threads);
}

TEST(Schedule, EquidistanceCoversExactly) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 60);
  for (std::uint32_t units : {1u, 5u, 7u, 30u, 64u}) {
    const auto schedule = equidistance_schedule(model, units);
    ASSERT_EQ(schedule.size(), units);
    expect_contiguous_cover(schedule, model.total_threads());
    // Sizes differ by at most one.
    u64 min_size = ~u64{0}, max_size = 0;
    for (const auto& p : schedule) {
      min_size = std::min(min_size, p.size());
      max_size = std::max(max_size, p.size());
    }
    EXPECT_LE(max_size - min_size, 1u);
  }
}

TEST(Schedule, EquiareaCoversExactly) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 60);
  for (std::uint32_t units : {1u, 5u, 7u, 30u, 64u}) {
    const auto schedule = equiarea_schedule(model, units);
    ASSERT_EQ(schedule.size(), units);
    expect_contiguous_cover(schedule, model.total_threads());
  }
}

TEST(Schedule, EquiareaWorkConservation) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 50);
  const auto schedule = equiarea_schedule(model, 30);
  u128 total = 0;
  for (const auto& p : schedule) total += partition_work(model, p);
  EXPECT_TRUE(total == model.total_work());
}

class ScheduleAgreement : public ::testing::TestWithParam<Scheme> {};

TEST_P(ScheduleAgreement, FastEquiareaMatchesNaive) {
  // The paper's O(G) level-based scheduler must produce exactly the
  // boundaries of the thread-by-thread accumulation it replaced.
  const auto model = WorkloadModel::for_scheme(GetParam(), 40);
  for (std::uint32_t units : {2u, 6u, 13u, 30u}) {
    const auto fast = equiarea_schedule(model, units);
    const auto naive = equiarea_schedule_naive(model, units);
    EXPECT_EQ(fast, naive) << scheme_name(GetParam()) << " units=" << units;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ScheduleAgreement,
                         ::testing::Values(Scheme{4, 1}, Scheme{4, 2}, Scheme{4, 3},
                                           Scheme{4, 4}),
                         [](const auto& info) { return scheme_name(info.param); });

TEST(Schedule, EquiareaBalancesFarBetterThanEquidistance) {
  // The heart of Fig. 3: for the 2x2 scheme, ED has wildly unequal areas
  // while EA is near-uniform.
  const auto model = WorkloadModel::for_scheme(Scheme{4, 2}, 50);
  const std::uint32_t units = 30;  // 5 nodes x 6 GPUs, the figure's setup
  const auto ed = schedule_imbalance(model, equidistance_schedule(model, units));
  const auto ea = schedule_imbalance(model, equiarea_schedule(model, units));
  EXPECT_GT(ed.imbalance, 3.0);   // first GPU carries several times the mean
  // At G = 50 one 2x2 thread carries up to C(48,2)/C(50,4)*30 ≈ 15% of a
  // unit's share, so EA can only balance to within that granularity.
  EXPECT_LT(ea.imbalance, 1.15);
}

TEST(Schedule, EquiareaAtPaperScaleIsBalanced) {
  // 1000 nodes x 6 GPUs on BRCA's 3x1 space: every GPU within 0.1%.
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 19411);
  const auto schedule = equiarea_schedule(model, 6000);
  expect_contiguous_cover(schedule, model.total_threads());
  const auto imbalance = schedule_imbalance(model, schedule);
  EXPECT_LT(imbalance.imbalance, 1.001);
  EXPECT_GT(imbalance.min_work, imbalance.mean_work * 0.999);
}

TEST(Schedule, SingleUnitGetsEverything) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 30);
  const auto schedule = equiarea_schedule(model, 1);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0].begin, 0u);
  EXPECT_EQ(schedule[0].end, model.total_threads());
}

TEST(Schedule, MoreUnitsThanWorkYieldsEmptyPartitions) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 6);  // C(6,3)=20 threads
  const auto schedule = equiarea_schedule(model, 64);
  expect_contiguous_cover(schedule, model.total_threads());
  std::uint32_t non_empty = 0;
  for (const auto& p : schedule) non_empty += p.size() > 0 ? 1 : 0;
  EXPECT_LE(non_empty, 20u);
}

// --- randomized invariants ---------------------------------------------------

/// The invariants every scheduler must hold for any workload and unit count:
/// exactly `units` partitions, contiguous and disjoint, covering [0, total),
/// boundaries matching the naive per-thread reference, and a well-defined
/// imbalance statistic (>= 1 by construction).
void expect_schedule_invariants(const WorkloadModel& model, std::uint32_t units,
                                const std::string& context) {
  const auto fast = equiarea_schedule(model, units);
  ASSERT_EQ(fast.size(), units) << context;
  expect_contiguous_cover(fast, model.total_threads());
  EXPECT_EQ(fast, equiarea_schedule_naive(model, units)) << context;
  u128 total = 0;
  for (const auto& p : fast) total += partition_work(model, p);
  EXPECT_TRUE(total == model.total_work()) << context;
  EXPECT_GE(schedule_imbalance(model, fast).imbalance, 1.0) << context;

  const auto ed = equidistance_schedule(model, units);
  ASSERT_EQ(ed.size(), units) << context;
  expect_contiguous_cover(ed, model.total_threads());
  EXPECT_GE(schedule_imbalance(model, ed).imbalance, 1.0) << context;
}

TEST(ScheduleProperty, RandomWorkloadsHoldAllInvariants) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 40; ++trial) {
    const auto genes = static_cast<std::uint32_t>(6 + rng.uniform(90));  // 6..95
    WorkloadModel model = [&] {
      switch (rng.uniform(6)) {
        case 0:
          return WorkloadModel::for_scheme(Scheme{4, 1}, genes);
        case 1:
          return WorkloadModel::for_scheme(Scheme{4, 2}, genes);
        case 2:
          return WorkloadModel::for_scheme(Scheme{4, 3}, genes);
        case 3:
          return WorkloadModel::for_scheme(Scheme{4, 4}, genes);
        case 4:
          return WorkloadModel::for_scheme(Scheme{3, 2}, genes);
        default:
          return WorkloadModel::for_scheme(Scheme{2, 1}, genes);
      }
    }();
    const std::string base = "trial " + std::to_string(trial) + ", G=" + std::to_string(genes);
    // units = 1, a random moderate count, and more units than threads.
    expect_schedule_invariants(model, 1, base + ", units=1");
    const auto units = static_cast<std::uint32_t>(2 + rng.uniform(200));
    expect_schedule_invariants(model, units, base + ", units=" + std::to_string(units));
    const auto oversubscribed =
        static_cast<std::uint32_t>(model.total_threads() + 1 + rng.uniform(50));
    if (oversubscribed < 5000) {
      expect_schedule_invariants(model, oversubscribed,
                                 base + ", units=" + std::to_string(oversubscribed));
    }
  }
}

TEST(Schedule, ZeroUnitsRejected) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 10);
  EXPECT_THROW(equidistance_schedule(model, 0), std::invalid_argument);
  EXPECT_THROW(equiarea_schedule(model, 0), std::invalid_argument);
}

TEST(Schedule, ImbalanceStatsSanity) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 40);
  const auto schedule = equiarea_schedule(model, 10);
  const auto s = schedule_imbalance(model, schedule);
  EXPECT_GE(s.max_work, s.mean_work);
  EXPECT_LE(s.min_work, s.mean_work);
  EXPECT_GE(s.imbalance, 1.0);
  EXPECT_NEAR(s.mean_work * 10, static_cast<double>(binomial(40, 4)), 1.0);
}

}  // namespace
}  // namespace multihit
