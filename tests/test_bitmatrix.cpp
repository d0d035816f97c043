#include "bitmat/bitmatrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "util/rng.hpp"

namespace multihit {
namespace {

TEST(BitMatrix, ConstructionAndDimensions) {
  const BitMatrix m(10, 130);
  EXPECT_EQ(m.genes(), 10u);
  EXPECT_EQ(m.samples(), 130u);
  EXPECT_EQ(m.words_per_row(), 3u);  // ceil(130/64)
  EXPECT_EQ(m.total_set_bits(), 0u);
}

TEST(BitMatrix, WordCountDoesNotWrapNearU32Max) {
  // samples + 63 overflows u32 here; zero genes keeps the matrix empty.
  const BitMatrix m(0, 4294967290u);
  EXPECT_EQ(m.words_per_row(), 67108864u);  // ceil((2^32 - 6) / 64)
}

TEST(BitMatrix, SetGetClear) {
  BitMatrix m(4, 100);
  m.set(2, 63);
  m.set(2, 64);
  m.set(3, 99);
  EXPECT_TRUE(m.get(2, 63));
  EXPECT_TRUE(m.get(2, 64));
  EXPECT_TRUE(m.get(3, 99));
  EXPECT_FALSE(m.get(2, 65));
  EXPECT_EQ(m.total_set_bits(), 3u);
  m.clear(2, 63);
  EXPECT_FALSE(m.get(2, 63));
  EXPECT_EQ(m.total_set_bits(), 2u);
}

TEST(BitMatrix, SetIsIdempotent) {
  BitMatrix m(2, 10);
  m.set(0, 5);
  m.set(0, 5);
  EXPECT_EQ(m.total_set_bits(), 1u);
}

TEST(BitMatrix, IntersectCountMatchesNaive) {
  Rng rng(7);
  BitMatrix m(8, 200);
  for (std::uint32_t g = 0; g < 8; ++g) {
    for (std::uint32_t s = 0; s < 200; ++s) {
      if (rng.bernoulli(0.3)) m.set(g, s);
    }
  }
  for (std::uint32_t h = 1; h <= 6; ++h) {
    std::vector<std::uint32_t> combo;
    for (std::uint32_t t = 0; t < h; ++t) combo.push_back(t);
    std::uint64_t naive = 0;
    for (std::uint32_t s = 0; s < 200; ++s) {
      bool all = true;
      for (std::uint32_t g : combo) all = all && m.get(g, s);
      naive += all ? 1 : 0;
    }
    EXPECT_EQ(m.intersect_count(combo), naive) << "h=" << h;
  }
}

TEST(BitMatrix, CombineRowsMatchesIntersectCount) {
  Rng rng(11);
  BitMatrix m(6, 150);
  for (std::uint32_t g = 0; g < 6; ++g) {
    for (std::uint32_t s = 0; s < 150; ++s) {
      if (rng.bernoulli(0.4)) m.set(g, s);
    }
  }
  const std::vector<std::uint32_t> combo{1, 3, 5};
  std::vector<std::uint64_t> buffer(m.words_per_row());
  EXPECT_EQ(m.combine_rows(combo, buffer), m.intersect_count(combo));
  // The buffer must mark exactly the intersecting samples.
  for (std::uint32_t s = 0; s < 150; ++s) {
    const bool expected = m.get(1, s) && m.get(3, s) && m.get(5, s);
    const bool actual = (buffer[s / 64] >> (s % 64)) & 1;
    EXPECT_EQ(actual, expected) << "s=" << s;
  }
}

TEST(BitMatrix, SpliceRemovesSelectedColumns) {
  BitMatrix m(3, 8);
  // Gene 0 mutated in samples 0..3; gene 1 in even samples; gene 2 in 7.
  for (std::uint32_t s = 0; s < 4; ++s) m.set(0, s);
  for (std::uint32_t s = 0; s < 8; s += 2) m.set(1, s);
  m.set(2, 7);

  // Keep samples 1, 2, 5, 7.
  std::vector<std::uint64_t> keep{0b10100110};
  EXPECT_EQ(m.splice_columns(keep), 4u);
  EXPECT_EQ(m.samples(), 4u);
  // New column order: old 1, 2, 5, 7.
  EXPECT_TRUE(m.get(0, 0));   // old sample 1
  EXPECT_TRUE(m.get(0, 1));   // old sample 2
  EXPECT_FALSE(m.get(0, 2));  // old sample 5
  EXPECT_FALSE(m.get(0, 3));  // old sample 7
  EXPECT_FALSE(m.get(1, 0));
  EXPECT_TRUE(m.get(1, 1));
  EXPECT_FALSE(m.get(1, 2));
  EXPECT_FALSE(m.get(1, 3));
  EXPECT_TRUE(m.get(2, 3));
}

TEST(BitMatrix, SpliceAcrossWordBoundaries) {
  Rng rng(13);
  BitMatrix m(5, 300);
  std::vector<std::vector<bool>> dense(5, std::vector<bool>(300, false));
  for (std::uint32_t g = 0; g < 5; ++g) {
    for (std::uint32_t s = 0; s < 300; ++s) {
      if (rng.bernoulli(0.25)) {
        m.set(g, s);
        dense[g][s] = true;
      }
    }
  }
  // Keep a pseudo-random subset.
  std::vector<std::uint64_t> keep(m.words_per_row(), 0);
  std::vector<std::uint32_t> kept_samples;
  for (std::uint32_t s = 0; s < 300; ++s) {
    if (rng.bernoulli(0.5)) {
      keep[s / 64] |= std::uint64_t{1} << (s % 64);
      kept_samples.push_back(s);
    }
  }
  const std::uint32_t new_count = m.splice_columns(keep);
  ASSERT_EQ(new_count, kept_samples.size());
  for (std::uint32_t g = 0; g < 5; ++g) {
    for (std::uint32_t ns = 0; ns < new_count; ++ns) {
      ASSERT_EQ(m.get(g, ns), dense[g][kept_samples[ns]]) << "g=" << g << " ns=" << ns;
    }
  }
}

TEST(BitMatrix, SpliceIgnoresBitsBeyondSampleCount) {
  BitMatrix m(1, 10);
  m.set(0, 9);
  // Keep mask with junk bits above position 9 set: they must not create
  // phantom columns.
  std::vector<std::uint64_t> keep{~0ULL};
  EXPECT_EQ(m.splice_columns(keep), 10u);
  EXPECT_EQ(m.samples(), 10u);
  EXPECT_TRUE(m.get(0, 9));
}

TEST(BitMatrix, SpliceCoveredComplementsMask) {
  BitMatrix m(2, 6);
  for (std::uint32_t s = 0; s < 6; ++s) m.set(0, s);
  m.set(1, 2);
  // Cover samples 0 and 2.
  std::vector<std::uint64_t> covered{0b000101};
  EXPECT_EQ(m.splice_covered(covered), 4u);
  EXPECT_EQ(m.samples(), 4u);
  EXPECT_EQ(m.intersect_count(std::vector<std::uint32_t>{0}), 4u);
  EXPECT_EQ(m.intersect_count(std::vector<std::uint32_t>{1}), 0u);  // sample 2 was covered
}

TEST(BitMatrix, SpliceToEmpty) {
  BitMatrix m(3, 5);
  m.set(1, 1);
  std::vector<std::uint64_t> keep{0};
  EXPECT_EQ(m.splice_columns(keep), 0u);
  EXPECT_EQ(m.samples(), 0u);
  EXPECT_EQ(m.words_per_row(), 0u);
  EXPECT_EQ(m.total_set_bits(), 0u);
}

TEST(BitMatrix, SplicePreservesIntersections) {
  // Splicing away columns outside the intersection must not change counts
  // over the kept columns — the invariant BitSplicing relies on.
  Rng rng(17);
  BitMatrix m(6, 128);
  for (std::uint32_t g = 0; g < 6; ++g) {
    for (std::uint32_t s = 0; s < 128; ++s) {
      if (rng.bernoulli(0.5)) m.set(g, s);
    }
  }
  const std::vector<std::uint32_t> combo{0, 2, 4};
  std::vector<std::uint64_t> covered(m.words_per_row());
  const std::uint64_t covered_count = m.combine_rows(combo, covered);
  BitMatrix spliced = m;
  spliced.splice_covered(covered);
  EXPECT_EQ(spliced.intersect_count(combo), 0u);  // all covered samples removed
  // Any other combination loses exactly the covered samples it shared.
  const std::vector<std::uint32_t> other{1, 3};
  std::vector<std::uint64_t> other_mask(m.words_per_row());
  m.combine_rows(other, other_mask);
  std::uint64_t shared = 0;
  for (std::size_t w = 0; w < covered.size(); ++w) {
    shared += static_cast<std::uint64_t>(std::popcount(other_mask[w] & covered[w]));
  }
  EXPECT_EQ(spliced.intersect_count(other), m.intersect_count(other) - shared);
  EXPECT_EQ(m.intersect_count(combo), covered_count);
}

TEST(BitMatrix, EqualityComparison) {
  BitMatrix a(2, 10), b(2, 10);
  EXPECT_EQ(a, b);
  a.set(1, 3);
  EXPECT_NE(a, b);
  b.set(1, 3);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace multihit
