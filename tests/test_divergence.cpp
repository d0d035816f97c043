#include "sched/divergence.hpp"

#include <gtest/gtest.h>

namespace multihit {
namespace {

// Brute-force reference: walk every warp, take the max directly.
DivergenceStats brute_divergence(const WorkloadModel& model, const Partition& range,
                                 std::uint32_t warp_size) {
  DivergenceStats stats;
  for (u64 warp = range.begin; warp < range.end; warp += warp_size) {
    const u64 end = std::min<u64>(warp + warp_size, range.end);
    u64 max_work = 0;
    for (u64 lambda = warp; lambda < end; ++lambda) {
      const u64 work = model.work_at(lambda);
      stats.useful_work += work;
      max_work = std::max(max_work, work);
    }
    stats.issued_work += static_cast<u128>(end - warp) * max_work;
  }
  stats.efficiency = stats.issued_work == 0
                         ? 1.0
                         : static_cast<double>(stats.useful_work) /
                               static_cast<double>(stats.issued_work);
  return stats;
}

TEST(Divergence, MatchesBruteForceAcrossSchemes) {
  for (const Scheme scheme : {Scheme{4, 2}, Scheme{4, 3}, Scheme{4, 4}}) {
    const auto model = WorkloadModel::for_scheme(scheme, 40);
    for (const std::uint32_t warp : {1u, 8u, 32u}) {
      const Partition whole{0, model.total_threads()};
      const auto fast = warp_divergence(model, whole, warp);
      const auto brute = brute_divergence(model, whole, warp);
      EXPECT_TRUE(fast.useful_work == brute.useful_work) << scheme_name(scheme);
      EXPECT_TRUE(fast.issued_work == brute.issued_work)
          << scheme_name(scheme) << " warp=" << warp;
    }
  }
}

TEST(Divergence, MatchesBruteForceOnSubranges) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 35);
  const u64 total = model.total_threads();
  for (const auto& [a, b] : {std::pair<u64, u64>{3, 777}, {100, total}, {total / 2, total / 2 + 65}}) {
    const Partition range{a, b};
    const auto fast = warp_divergence(model, range, 32);
    const auto brute = brute_divergence(model, range, 32);
    EXPECT_TRUE(fast.issued_work == brute.issued_work) << a << "," << b;
    EXPECT_TRUE(fast.useful_work == brute.useful_work);
  }
}

TEST(Divergence, WarpSizeOneIsPerfect) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 2}, 30);
  const auto stats = warp_divergence(model, {0, model.total_threads()}, 1);
  EXPECT_TRUE(stats.useful_work == stats.issued_work);
  EXPECT_DOUBLE_EQ(stats.efficiency, 1.0);
}

TEST(Divergence, EmptyRange) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 20);
  const auto stats = warp_divergence(model, {5, 5}, 32);
  EXPECT_TRUE(stats.issued_work == 0);
  EXPECT_DOUBLE_EQ(stats.efficiency, 1.0);
}

TEST(Divergence, LinearizedBeatsNaiveMapping) {
  // Paper contribution 2: the naive G x G launch leaves ~half its threads
  // idle (thread-slot waste) and loses additional work-time to mixed warps;
  // the linearized 2x1 mapping wastes almost nothing on either axis.
  const std::uint32_t G = 512;
  const auto naive = naive_triangular_divergence(G, 32);
  EXPECT_LT(naive.thread_utilization, 0.51);   // "half the threads are idle"
  EXPECT_LT(naive.efficiency, 0.9);            // work-time divergence on top

  const auto model = WorkloadModel::for_scheme(Scheme{3, 2}, G);
  const auto linear = warp_divergence(model, {0, model.total_threads()}, 32);
  EXPECT_GT(linear.thread_utilization, 0.99);
  EXPECT_GT(linear.efficiency, 0.99);
}

TEST(Divergence, ThreadAccountingConsistency) {
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 30);
  const Partition whole{0, model.total_threads()};
  const auto stats = warp_divergence(model, whole, 32);
  EXPECT_EQ(stats.launched_threads, model.total_threads());
  // Zero-work threads of 3x1 are exactly the C(G-1,2) with k = G-1.
  EXPECT_EQ(stats.launched_threads - stats.working_threads, triangular(29));
}

TEST(Divergence, TetrahedralMappingNearPerfectAtScale) {
  // 3x1 levels hold C(k,2) threads each — enormous relative to a warp — so
  // straddling warps are a vanishing fraction.
  const auto model = WorkloadModel::for_scheme(Scheme{4, 3}, 2000);
  const auto stats = warp_divergence(model, {0, model.total_threads()}, 32);
  EXPECT_GT(stats.efficiency, 0.999);
}

}  // namespace
}  // namespace multihit
