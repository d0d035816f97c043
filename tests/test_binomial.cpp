#include "combinat/binomial.hpp"

#include <gtest/gtest.h>

namespace multihit {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(3, 5), 0u);
}

TEST(Binomial, PascalIdentityHolds) {
  for (u64 n = 1; n <= 60; ++n) {
    for (u64 k = 1; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Binomial, PaperScaleValues) {
  // The paper's key magnitudes: C(20000,4) ~ 6.66e15, BRCA's
  // C(19411,4) ~ 5.9e15 (the "1.22e12 entries * 512 block" list, §III-E
  // divides this by block size), C(19411,3) ~ 1.218e12 (3-hit space).
  EXPECT_EQ(binomial(20000, 2), 199990000u);
  EXPECT_EQ(binomial(19411, 3), 19411ULL * 19410 * 19409 / 6);
  EXPECT_EQ(binomial(20000, 4), 6664666849995000ULL);
}

TEST(Binomial, CheckedOverflowDetection) {
  EXPECT_FALSE(binomial_checked(20000, 5).has_value());  // ~2.7e19 > 2^64-1
  EXPECT_TRUE(binomial_checked(20000, 4).has_value());
  EXPECT_TRUE(binomial_checked(67, 33).has_value());  // near the u64 edge
  EXPECT_FALSE(binomial_checked(68, 34).has_value());
}

TEST(Binomial, Binomial128HandlesLargerSpace) {
  const auto value = binomial128(20000, 5);
  ASSERT_TRUE(value.has_value());
  // C(20000,5) = C(20000,4) * 19996 / 5.
  const u128 expected = static_cast<u128>(6664666849995000ULL) * 19996u / 5u;
  EXPECT_TRUE(*value == expected);
}

TEST(Binomial, TriangularMatchesBinomial) {
  for (u64 n = 0; n <= 2000; n += 7) EXPECT_EQ(triangular(n), binomial(n, 2));
  EXPECT_EQ(triangular(20000), binomial(20000, 2));
}

TEST(Binomial, TetrahedralMatchesBinomial) {
  for (u64 n = 0; n <= 2000; n += 7) EXPECT_EQ(tetrahedral(n), binomial(n, 3));
  EXPECT_EQ(tetrahedral(20000), binomial(20000, 3));
}

TEST(Binomial, QuarticMatchesBinomial) {
  for (u64 n = 0; n <= 2000; n += 7) EXPECT_EQ(quartic(n), binomial(n, 4));
  EXPECT_EQ(quartic(20000), binomial(20000, 4));
  EXPECT_EQ(quartic(3), 0u);
  EXPECT_EQ(quartic(4), 1u);
}

TEST(Binomial, FiguratesAreConstexpr) {
  static_assert(triangular(4) == 6);
  static_assert(tetrahedral(5) == 10);
  static_assert(tetrahedral128(5) == 10);
  static_assert(quartic(6) == 15);
  SUCCEED();
}

/// n(n-1)(n-2)/6 by the naive 128-bit expression, exact while the product
/// fits 128 bits (n < 2^42).
u128 naive_tetrahedral128(u64 n) {
  if (n < 3) return 0;
  return static_cast<u128>(n) * (n - 1) * (n - 2) / 6;
}

TEST(Binomial, Tetrahedral128MatchesTheNaiveExpression) {
  // Every n up to 2^21, and edge values: around 2^32, around the largest n
  // whose C(n, 3) fits u64 (4801280), and at the naive expression's limit.
  std::uint64_t mismatches = 0;
  u64 first = 0;
  for (u64 n = 0; n <= (u64{1} << 21); ++n) {
    if (tetrahedral128(n) != naive_tetrahedral128(n) && mismatches++ == 0) first = n;
  }
  EXPECT_EQ(mismatches, 0u) << "first at n = " << first;
  for (const u64 centre : {u64{4801280}, u64{1} << 32, (u64{1} << 42) - 3}) {
    for (u64 n = centre - 3; n <= centre + 2; ++n) {
      EXPECT_TRUE(tetrahedral128(n) == naive_tetrahedral128(n)) << "n = " << n;
    }
  }
  // The u64 form agrees wherever C(n, 3) fits.
  EXPECT_TRUE(tetrahedral128(4801280) <= ~u64{0});
  EXPECT_TRUE(tetrahedral128(4801281) > ~u64{0});
  EXPECT_TRUE(tetrahedral(4801280) == tetrahedral128(4801280));
  EXPECT_EQ(tetrahedral(4801280), binomial(4801280, 3));
}

TEST(Binomial, ChooseMatchesBinomial) {
  for (u64 k = 0; k <= 8; ++k) {
    for (u64 n = 0; n <= 300; ++n) EXPECT_EQ(choose(n, k), binomial(n, k)) << n << " " << k;
  }
  // The largest arguments whose values fit u64 at k = 3, 4, 5.
  EXPECT_EQ(choose(4801280, 3), binomial(4801280, 3));
  EXPECT_EQ(choose(145056, 4), binomial(145056, 4));
  EXPECT_EQ(choose(18580, 5), binomial(18580, 5));
}

}  // namespace
}  // namespace multihit
