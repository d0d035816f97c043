#include "bitmat/bitmatrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>
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

TEST(BitMatrix, SpliceRejectsWrongMaskLength) {
  // A short mask was read past its end in release builds; a long one hid a
  // caller's stale width.
  BitMatrix m(2, 130);  // 3 words per row
  m.set(1, 129);
  const BitMatrix before = m;
  for (const std::size_t words : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(words);
    const std::vector<std::uint64_t> mask(words, ~std::uint64_t{0});
    EXPECT_THROW(m.splice_columns(mask), std::invalid_argument);
    EXPECT_EQ(m, before);
  }
}

TEST(BitMatrix, SpliceCoveredRejectsWrongMaskLength) {
  BitMatrix m(2, 130);
  m.set(0, 5);
  const BitMatrix before = m;
  for (const std::size_t words : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(words);
    const std::vector<std::uint64_t> mask(words, 0);
    EXPECT_THROW(m.splice_covered(mask), std::invalid_argument);
    EXPECT_EQ(m, before);
  }
}

// --- differential check against the one-bit-per-step splice ------------------

/// The splice as it was before runs: one loop step per kept bit. The
/// reference the run-based splice_columns must match exactly.
BitMatrix reference_splice(const BitMatrix& m, std::span<const std::uint64_t> keep) {
  const std::uint32_t words = m.words_per_row();
  const auto trimmed = [&](std::uint32_t w) {
    std::uint64_t mask = keep[w];
    if (w == words - 1 && m.samples() % 64 != 0) {
      mask &= (std::uint64_t{1} << (m.samples() % 64)) - 1;
    }
    return mask;
  };
  std::uint32_t kept = 0;
  for (std::uint32_t w = 0; w < words; ++w) {
    kept += static_cast<std::uint32_t>(std::popcount(trimmed(w)));
  }
  BitMatrix out(m.genes(), kept);
  for (std::uint32_t g = 0; g < m.genes(); ++g) {
    const auto src = m.row(g);
    const auto dst = out.row(g);
    std::uint32_t out_pos = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      std::uint64_t bits = trimmed(w);
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        if ((src[w] >> b) & 1) dst[out_pos / 64] |= std::uint64_t{1} << (out_pos % 64);
        ++out_pos;
      }
    }
  }
  return out;
}

/// Random genes x samples matrix at 50% density, with junk bits set above
/// samples() in every row's last word (a splice must never carry them).
BitMatrix random_matrix(std::uint32_t genes, std::uint32_t samples, Rng& rng) {
  BitMatrix m(genes, samples);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (auto& word : m.row(g)) word = rng();
    if (samples % 64 != 0) m.row(g).back() |= ~std::uint64_t{0} << (samples % 64);
  }
  return m;
}

/// All ones with `holes` contiguous dropped stretches of 1-8 samples: the
/// mask a greedy iteration leaves (its winner's TP samples cluster).
std::vector<std::uint64_t> greedy_keep(std::uint32_t samples, std::uint32_t holes, Rng& rng) {
  std::vector<std::uint64_t> keep((samples + 63) / 64, ~std::uint64_t{0});
  for (std::uint32_t h = 0; h < holes && samples > 0; ++h) {
    const auto start = static_cast<std::uint32_t>(rng.uniform(samples));
    const auto len = 1 + static_cast<std::uint32_t>(rng.uniform(8));
    for (std::uint32_t s = start; s < std::min(samples, start + len); ++s) {
      keep[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    }
  }
  return keep;
}

void expect_splice_matches_reference(const BitMatrix& m, std::span<const std::uint64_t> keep) {
  const BitMatrix want = reference_splice(m, keep);
  BitMatrix got = m;
  EXPECT_EQ(got.splice_columns(keep), want.samples());
  EXPECT_EQ(got.samples(), want.samples());
  EXPECT_EQ(got.words_per_row(), want.words_per_row());
  EXPECT_EQ(got, want);
}

struct SpliceCase {
  std::string name;
  BitMatrix matrix;
  std::vector<std::uint64_t> keep;
};

/// Matrices of 0-1600 samples, each with masks that stress the packer:
/// empty, full (keep bits above samples() set), single holes, greedy holes,
/// random, whole-word runs and runs that straddle destination words.
std::vector<SpliceCase> reference_cases() {
  Rng rng(19);
  std::vector<SpliceCase> cases;
  for (const std::uint32_t samples : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 1600u}) {
    const std::uint32_t words = (samples + 63) / 64;
    const BitMatrix m = random_matrix(5, samples, rng);
    std::vector<std::pair<const char*, std::vector<std::uint64_t>>> masks;
    masks.emplace_back("empty", std::vector<std::uint64_t>(words, 0));
    // All ones: also sets every keep bit above samples().
    masks.emplace_back("full", std::vector<std::uint64_t>(words, ~std::uint64_t{0}));
    if (samples > 0) {
      std::vector<std::uint64_t> single_hole(words, ~std::uint64_t{0});
      single_hole[samples / 2 / 64] &= ~(std::uint64_t{1} << (samples / 2 % 64));
      masks.emplace_back("single hole", single_hole);
    }
    masks.emplace_back("greedy", greedy_keep(samples, 3, rng));
    std::vector<std::uint64_t> random25(words), random50(words);
    for (auto& w : random25) w = rng() & rng();
    for (auto& w : random50) w = rng();
    masks.emplace_back("random 25% kept", random25);
    masks.emplace_back("random 50% kept", random50);
    if (words >= 2) {
      // A whole-word run, first aligned, then landing 3 bits into a
      // destination word so it straddles two.
      std::vector<std::uint64_t> whole(words, 0);
      whole[1] = ~std::uint64_t{0};
      masks.emplace_back("whole word", whole);
      whole[0] = 0b111;
      masks.emplace_back("whole word, unaligned", whole);
    }
    // 40-bit runs at every word: the second lands at destination bit 40 and
    // crosses into the next word.
    masks.emplace_back("straddling runs",
                       std::vector<std::uint64_t>(words, (std::uint64_t{1} << 40) - 1));
    std::vector<std::uint64_t> high_runs(words, 0xFFFF'0000'0000'FF00ULL);
    masks.emplace_back("offset runs", high_runs);
    for (auto& [name, keep] : masks) {
      cases.push_back({std::string(name) + ", samples " + std::to_string(samples), m,
                       std::move(keep)});
    }
  }
  return cases;
}

TEST(BitMatrix, SpliceMatchesBitLoopReference) {
  for (const SpliceCase& c : reference_cases()) {
    SCOPED_TRACE(c.name);
    expect_splice_matches_reference(c.matrix, c.keep);
  }
}

/// 60 greedy-shaped splices of one 7 x 1600 matrix, each checked against
/// the bit loop applied to the previous step's reference.
void expect_greedy_splices_match_reference() {
  Rng rng(23);
  BitMatrix got = random_matrix(7, 1600, rng);
  BitMatrix want = reference_splice(got, std::vector<std::uint64_t>(got.words_per_row(),
                                                                    ~std::uint64_t{0}));
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(step);
    const std::vector<std::uint64_t> keep =
        greedy_keep(want.samples(), 1 + static_cast<std::uint32_t>(rng.uniform(4)), rng);
    std::vector<std::uint64_t> covered(keep.size());
    for (std::size_t w = 0; w < keep.size(); ++w) covered[w] = ~keep[w];
    want = reference_splice(want, keep);
    ASSERT_EQ(got.splice_covered(covered), want.samples());
    ASSERT_EQ(got.words_per_row(), want.words_per_row());
    ASSERT_EQ(got, want);
  }
  EXPECT_LT(got.samples(), 1600u);
}

TEST(BitMatrix, SuccessiveGreedySplicesMatchBitLoopReference) {
  expect_greedy_splices_match_reference();
}

/// Restores the bitops backend that was active when it was made.
class BackendRestorer {
 public:
  BackendRestorer() : previous_(active_backend()) {}
  ~BackendRestorer() { set_backend(previous_); }
  BackendRestorer(const BackendRestorer&) = delete;
  BackendRestorer& operator=(const BackendRestorer&) = delete;

 private:
  BitopsBackend previous_;
};

TEST(BitMatrix, SpliceBackendsAgree) {
  // The splice's per-word compress is the backend's (PEXT under avx2), so
  // each supported backend must reproduce the bit loop on its own.
  const BackendRestorer restore;
  for (const BitopsBackend backend : {BitopsBackend::kScalar, BitopsBackend::kAvx2}) {
    if (!backend_supported(backend)) continue;
    SCOPED_TRACE(backend_name(backend));
    ASSERT_TRUE(set_backend(backend));
    for (const SpliceCase& c : reference_cases()) {
      SCOPED_TRACE(c.name);
      expect_splice_matches_reference(c.matrix, c.keep);
    }
    expect_greedy_splices_match_reference();
  }
}

TEST(BitMatrix, SpliceInPlaceEdgeCases) {
  // The splice packs every row inside the matrix's own storage, row g moving
  // from g * old to g * new words: row boundaries, kept counts that end a
  // row on a word boundary and the tail word are where that can go wrong.
  Rng rng(29);
  const std::uint64_t ones = ~std::uint64_t{0};
  const std::uint64_t alternate = 0x5555'5555'5555'5555ULL;
  struct Case {
    const char* name;
    std::uint32_t genes;
    std::uint32_t samples;
    std::vector<std::uint64_t> keep;
  };
  const std::vector<Case> cases = {
      {"one gene", 1, 1600, greedy_keep(1600, 5, rng)},
      {"one-word rows", 9, 50, {rng()}},
      // 4 x 32 = 128 kept bits: each row ends exactly on a word boundary.
      {"kept a multiple of 64", 6, 300, {alternate, alternate, alternate, alternate, 0}},
      {"kept a multiple of 64, straddling", 6, 300,
       {0xFFFF'FFFFULL, ones, 0xFFFF'FFFF'0000'0000ULL, 0, 0}},
      {"keep none", 4, 200, std::vector<std::uint64_t>(4, 0)},
      // Every keep bit set, including the 56 above samples() in the tail.
      {"keep all, stale keep bits", 4, 200, std::vector<std::uint64_t>(4, ones)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // random_matrix sets junk above samples(): no splice may carry it.
    const BitMatrix m = random_matrix(c.genes, c.samples, rng);
    const BitMatrix want = reference_splice(m, c.keep);
    BitMatrix got = m;
    const std::uint64_t* storage = got.row(0).data();
    ASSERT_EQ(got.splice_columns(c.keep), want.samples());
    ASSERT_EQ(got, want);
    if (got.words_per_row() == 0) continue;
    EXPECT_EQ(got.row(0).data(), storage);  // packed in place, no reallocation
    if (got.samples() % 64 == 0) continue;
    for (std::uint32_t g = 0; g < got.genes(); ++g) {
      EXPECT_EQ(got.row(g).back() >> (got.samples() % 64), 0u) << "gene " << g;
    }
  }
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
