#include "combinat/unrank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "combinat/linearize.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

TEST(Unrank, FirstCombination) {
  EXPECT_EQ(first_combination(1), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(first_combination(4), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Unrank, RankOfFirstIsZero) {
  for (std::uint32_t h = 1; h <= 6; ++h) {
    EXPECT_EQ(rank_combination(first_combination(h)), 0u);
  }
}

class UnrankRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UnrankRoundTrip, BijectionOverFullSpace) {
  const std::uint32_t h = GetParam();
  const std::uint32_t universe = 14;
  const u64 total = binomial(universe, h);
  for (u64 lambda = 0; lambda < total; ++lambda) {
    const auto combo = unrank_combination(lambda, h);
    ASSERT_EQ(combo.size(), h);
    ASSERT_TRUE(std::is_sorted(combo.begin(), combo.end()));
    ASSERT_TRUE(std::adjacent_find(combo.begin(), combo.end()) == combo.end());
    ASSERT_LT(combo.back(), universe);
    ASSERT_EQ(rank_combination(combo), lambda) << "h=" << h << " lambda=" << lambda;
  }
}

INSTANTIATE_TEST_SUITE_P(AllHitCounts, UnrankRoundTrip, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Unrank, MatchesSpecializedPairRanking) {
  for (u64 lambda = 0; lambda < triangular(40); ++lambda) {
    const Pair p = unrank_pair(lambda);
    const std::uint32_t combo[2] = {p.i, p.j};
    EXPECT_EQ(rank_combination(combo), lambda);
    EXPECT_EQ(unrank_combination(lambda, 2), (std::vector<std::uint32_t>{p.i, p.j}));
  }
}

TEST(Unrank, MatchesSpecializedTripleRanking) {
  for (u64 lambda = 0; lambda < tetrahedral(25); ++lambda) {
    const Triple t = unrank_triple(lambda);
    const std::uint32_t combo[3] = {t.i, t.j, t.k};
    EXPECT_EQ(rank_combination(combo), lambda);
    EXPECT_EQ(unrank_combination(lambda, 3), (std::vector<std::uint32_t>{t.i, t.j, t.k}));
  }
}

TEST(Unrank, QuadrupleAtPaperScale) {
  // C(19411,4)-1 is the largest 4-hit rank for BRCA.
  const u64 lambda = quartic(19411) - 1;
  const auto combo = unrank_combination(lambda, 4);
  EXPECT_EQ(combo, (std::vector<std::uint32_t>{19407, 19408, 19409, 19410}));
  EXPECT_EQ(rank_combination(combo), lambda);
}

TEST(Unrank, ColexSuccessorVisitsAllInRankOrder) {
  const std::uint32_t universe = 11;
  for (std::uint32_t h = 1; h <= 5; ++h) {
    auto combo = first_combination(h);
    u64 lambda = 0;
    do {
      ASSERT_EQ(rank_combination(combo), lambda);
      ++lambda;
    } while (next_combination_colex(combo, universe));
    EXPECT_EQ(lambda, binomial(universe, h));
  }
}

// --- the closed forms against the generic binomial ---------------------------

/// λ by the generic binomial: Σ_t C(c_t, t+1).
u64 reference_rank(const std::vector<std::uint32_t>& combo) {
  u64 lambda = 0;
  for (std::size_t t = 0; t < combo.size(); ++t) lambda += binomial(combo[t], t + 1);
  return lambda;
}

/// The size-k combination of rank λ by the generic binomial: each digit is
/// the largest c with C(c, t) <= the remaining rank, found by bisection over
/// binomial128.
std::vector<std::uint32_t> reference_unrank(u64 lambda, std::uint32_t k) {
  std::vector<std::uint32_t> combo(k);
  u64 rem = lambda;
  for (std::uint32_t t = k; t >= 1; --t) {
    u64 lo = t - 1;            // C(t-1, t) = 0 <= rem
    u64 hi = u64{1} << 33;     // C(2^33, t) > 2^64 > rem for t >= 2
    if (t == 1) lo = hi = rem;
    while (lo < hi) {
      const u64 mid = lo + (hi - lo + 1) / 2;
      const auto v = binomial128(mid, t);
      if (v && *v <= static_cast<u128>(rem)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    combo[t - 1] = static_cast<std::uint32_t>(lo);
    rem -= binomial(lo, t);
  }
  return combo;
}

TEST(Unrank, ClosedFormsMatchTheGenericBinomialOnEverySmallSpace) {
  // Every λ < C(60, k) for k <= 5, which holds every space of G <= 60 genes
  // (colex ranks of a smaller space are a prefix of a larger one's). The
  // reference combination is the colex walk, pinned rank by rank to the
  // generic binomial.
  constexpr std::uint32_t kGenes = 60;
  u64 table[6][kGenes];  // table[t][c] = C(c, t) by the generic binomial
  for (std::uint32_t t = 0; t <= 5; ++t) {
    for (std::uint32_t c = 0; c < kGenes; ++c) table[t][c] = binomial(c, t);
  }
  for (std::uint32_t k = 1; k <= 5; ++k) {
    std::vector<std::uint32_t> walk = first_combination(k);
    std::vector<std::uint32_t> combo(k);
    const u64 total = binomial(kGenes, k);
    u64 mismatches = 0;
    u64 first = 0;
    for (u64 lambda = 0; lambda < total; ++lambda) {
      u64 expected_rank = 0;
      for (std::uint32_t t = 0; t < k; ++t) expected_rank += table[t + 1][walk[t]];
      unrank_combination(lambda, std::span<std::uint32_t>(combo));
      const bool same = expected_rank == lambda && combo == walk &&
                        rank_combination(walk) == lambda && colex_top(lambda, k) == walk.back();
      if (!same && mismatches++ == 0) first = lambda;
      next_combination_colex(walk, kGenes);
    }
    EXPECT_EQ(mismatches, 0u) << "k = " << k << ", first at lambda = " << first;
    EXPECT_EQ(reference_unrank(total - 1, k), unrank_combination(total - 1, k)) << k;
  }
}

TEST(Unrank, ClosedFormsMatchTheGenericBinomialNearTheU64Limit) {
  // The last ranks below 2^64 at k = 3, 4, 5, and random ones in its top
  // 2^40; at k = 2, whose digits must fit 32 bits, the same below
  // C(2^32, 2).
  Rng rng(11);
  const u64 pair_end = triangular(u64{1} << 32);
  for (std::uint32_t k = 2; k <= 5; ++k) {
    const u64 limit = k == 2 ? pair_end - 1 : ~u64{0};
    std::vector<u64> lambdas;
    for (u64 back = 0; back < 64; ++back) lambdas.push_back(limit - back);
    for (int i = 0; i < 200; ++i) lambdas.push_back(limit - rng.uniform(u64{1} << 40));
    for (const u64 lambda : lambdas) {
      const std::vector<std::uint32_t> expected = reference_unrank(lambda, k);
      ASSERT_EQ(unrank_combination(lambda, k), expected) << "k = " << k << ", lambda " << lambda;
      ASSERT_EQ(colex_top(lambda, k), expected.back()) << "k = " << k << ", lambda " << lambda;
      ASSERT_EQ(rank_combination(expected), lambda) << "k = " << k << ", lambda " << lambda;
      ASSERT_EQ(reference_rank(expected), lambda) << "k = " << k << ", lambda " << lambda;
    }
  }
}

TEST(Unrank, ColexSuccessorTerminates) {
  std::vector<std::uint32_t> last{7, 8, 9};
  EXPECT_FALSE(next_combination_colex(last, 10));
}

}  // namespace
}  // namespace multihit
