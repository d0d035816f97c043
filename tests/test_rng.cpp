#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace multihit {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 60);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 16; ++i) values.insert(rng());
  EXPECT_GT(values.size(), 1u);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliAtTheEndsTakesNoDraw) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double p : {0.0, -0.0, 1.0, -0.5, 1.5, -inf, inf}) {
    SCOPED_TRACE(p);
    Rng rng(59), twin(59);
    EXPECT_EQ(rng.bernoulli(p), p >= 1.0);
    EXPECT_EQ(rng(), twin()) << "bernoulli(" << p << ") advanced the stream";
  }
}

TEST(Rng, BernoulliNaNTakesOneDrawAndFails) {
  const double nan = std::nan("");
  Rng rng(61), twin(61);
  EXPECT_FALSE(rng.bernoulli(nan));
  twin();
  EXPECT_EQ(rng(), twin());
  EXPECT_EQ(Rng::bernoulli_threshold(nan), 0u);
}

TEST(Rng, IntegerBernoulliTestMatchesTheDoubleTest) {
  // At p = k * 2^-53 and its nextafter neighbours, the integer test
  // (x >> 11) < bernoulli_threshold(p) accepts exactly the draws whose
  // uniform_double() value, (x >> 11) * 2^-53, is below p: checked on the
  // draws around the boundary, with the low 11 bits (which uniform_double
  // drops) both clear and set.
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{1} << 20, (std::uint64_t{1} << 20) + 1,
                                kOne / 3, kOne / 2 - 1, kOne / 2, kOne / 2 + 1, kOne - 2,
                                kOne - 1}) {
    const double p = static_cast<double>(k) * 0x1.0p-53;
    for (const double q : {std::nextafter(p, 0.0), p, std::nextafter(p, 1.0)}) {
      SCOPED_TRACE(q);
      const std::uint64_t threshold = Rng::bernoulli_threshold(q);
      for (std::uint64_t j = k - 1; j <= k + 2 && j < kOne; ++j) {
        for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
          const std::uint64_t x = (j << 11) | low;
          EXPECT_EQ((x >> 11) < threshold, static_cast<double>(x >> 11) * 0x1.0p-53 < q)
              << "top bits " << j;
        }
      }
    }
  }
  // The smallest positive p admits only the all-zero top bits, the largest
  // p below 1 rejects only the all-one top bits.
  EXPECT_EQ(Rng::bernoulli_threshold(std::numeric_limits<double>::denorm_min()), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(std::nextafter(1.0, 0.0)), kOne - 1);
  // And on live streams: twin generators, one testing uniform_double() < p,
  // the other the integer form, agree on every draw.
  for (const double p : {0.3, 0.012, 0.97, 1.0 / 3.0, 0x1.0p-40}) {
    SCOPED_TRACE(p);
    Rng a(71), b(71);
    const std::uint64_t threshold = Rng::bernoulli_threshold(p);
    for (int i = 0; i < 20000; ++i) ASSERT_EQ(a.uniform_double() < p, (b() >> 11) < threshold);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, NormalHasUnitMoments) {
  Rng rng(29);
  constexpr int kDraws = 50000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sumsq / kDraws, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(31);
  for (double lambda : {0.1, 2.0, 20.0, 100.0}) {
    double sum = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / kDraws, lambda, std::max(0.05, lambda * 0.05));
  }
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, SampleWithoutReplacementProperties) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) == sample.end());
  for (std::uint64_t v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(10, 10);
  ASSERT_EQ(sample.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleZero) {
  Rng rng(47);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(53);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

// The first values of every drawing call for two seeds, taken from the
// out-of-line generator and never re-taken: raw words, bounded integers,
// unit doubles, and Bernoulli outcomes whose probabilities include the
// no-draw ends (0, 1) and NaN (one draw), followed by one raw word that
// shows where the stream stands afterwards.
TEST(Rng, GoldenStream) {
  struct Golden {
    std::uint64_t seed;
    std::array<std::uint64_t, 4> raw;
    std::array<std::uint64_t, 5> bounded;
    std::array<double, 3> unit;
    std::uint64_t bernoulli_bits;
    std::uint64_t after;
  };
  const std::array<Golden, 2> golden = {{
      {42,
       {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
        0xecb8ad4703b360a1ULL},
       {0, 7, 0xaf99c, 0xd99a2743ebULL, 0x40f87a2624dd217fULL},
       {0x1.2aacc2beeebf7p-1, 0x1.5d6a766818207p-1, 0x1.29a76e61cebe2p-2},
       0x38b2,
       0x5061938da99c7af0ULL},
      {0x9e3779b97f4a7c15ULL,
       {0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
        0x01334ef8ed3cc2bdULL},
       {0, 2, 0x5b8da, 0xa0aee00b5bULL, 0x34b69847c5c4526fULL},
       {0x1.f8f36ceb434edp-1, 0x1.a860f2fd632a4p-1, 0x1.763078e3010bcp-2},
       0x70b0,
       0x45ffb16b9099ad54ULL},
  }};
  constexpr std::array<std::uint64_t, 5> kBounds = {1, 10, 1000003, 1ULL << 40, ~0ULL / 3};
  const double nan = std::nan("");
  const std::array<double, 16> probabilities = {0.3, 0.5,  0.0,  0.01, 0.99, 1.0, nan, 0.97,
                                                0.012, 0.03, -0.5, 0.5, 1.5,  0.7, 0.25, 0.5};
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.seed);
    Rng rng(g.seed);
    for (const std::uint64_t raw : g.raw) EXPECT_EQ(rng(), raw);
    for (std::size_t i = 0; i < kBounds.size(); ++i) {
      EXPECT_EQ(rng.uniform(kBounds[i]), g.bounded[i]);
    }
    for (const double unit : g.unit) EXPECT_EQ(rng.uniform_double(), unit);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < probabilities.size(); ++i) {
      bits |= static_cast<std::uint64_t>(rng.bernoulli(probabilities[i])) << i;
    }
    EXPECT_EQ(bits, g.bernoulli_bits);
    EXPECT_EQ(rng(), g.after);
  }
}

}  // namespace
}  // namespace multihit
