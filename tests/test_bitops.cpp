#include "bitmat/bitops.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace multihit {
namespace {

std::vector<std::uint64_t> random_row(Rng& rng, std::size_t words) {
  std::vector<std::uint64_t> row(words);
  for (auto& w : row) w = rng();
  return row;
}

// Naive per-bit reference.
std::uint64_t naive_and_popcount(const std::vector<std::vector<std::uint64_t>>& rows) {
  if (rows.empty()) return 0;
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < rows[0].size(); ++w) {
    for (int b = 0; b < 64; ++b) {
      bool all = true;
      for (const auto& row : rows) {
        if (!((row[w] >> b) & 1)) {
          all = false;
          break;
        }
      }
      count += all ? 1 : 0;
    }
  }
  return count;
}

TEST(BitOps, PopcountRow) {
  EXPECT_EQ(popcount_row(std::vector<std::uint64_t>{}), 0u);
  EXPECT_EQ(popcount_row(std::vector<std::uint64_t>{0}), 0u);
  EXPECT_EQ(popcount_row(std::vector<std::uint64_t>{~0ULL}), 64u);
  EXPECT_EQ(popcount_row(std::vector<std::uint64_t>{0x5ULL, 0x3ULL}), 4u);
}

TEST(BitOps, AndPopcountMatchesNaive) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t words = 1 + rng.uniform(8);
    const auto a = random_row(rng, words);
    const auto b = random_row(rng, words);
    EXPECT_EQ(and_popcount(a, b), naive_and_popcount({a, b}));
  }
}

TEST(BitOps, AndPopcountIsCommutative) {
  Rng rng(101);
  const auto a = random_row(rng, 4);
  const auto b = random_row(rng, 4);
  EXPECT_EQ(and_popcount(a, b), and_popcount(b, a));
}

TEST(BitOps, AndRowsStagingMatchesDirect) {
  // The MemOpt identity: popcount((a&b) & c) == popcount(a & b & c).
  Rng rng(103);
  const auto a = random_row(rng, 6);
  const auto b = random_row(rng, 6);
  const auto c = random_row(rng, 6);
  std::vector<std::uint64_t> staged(6);
  and_rows(staged, a, b);
  EXPECT_EQ(and_popcount(staged, c), naive_and_popcount({a, b, c}));
}

TEST(BitOps, EmptyRowsAreHandled) {
  const std::vector<std::uint64_t> empty;
  std::vector<std::uint64_t> dst;
  EXPECT_EQ(and_popcount(empty, empty), 0u);
  and_rows(dst, empty, empty);
}

}  // namespace
}  // namespace multihit
