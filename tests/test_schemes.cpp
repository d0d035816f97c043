#include "core/schemes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitmat/bitops.hpp"
#include "cluster/distributed.hpp"
#include "cluster/model.hpp"
#include "combinat/binomial.hpp"
#include "combinat/linearize.hpp"
#include "combinat/unrank.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
#include "gpusim/device.hpp"
#include "sched/schedule.hpp"
#include "sched/workload.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

struct Fixture {
  Dataset data;
  FContext ctx;
};

Fixture make_fixture(std::uint32_t genes, std::uint32_t hits, std::uint64_t seed,
                     std::uint32_t planted = 3, std::uint32_t tumor_samples = 70) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = tumor_samples;
  spec.normal_samples = 50;
  spec.hits = hits;
  spec.num_combinations = planted;
  spec.background_rate = 0.05;
  spec.seed = seed;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

/// Gene count per hit count that keeps C(G, h) in the low thousands.
std::uint32_t small_genes(std::uint32_t hits) {
  static constexpr std::uint32_t kGenes[] = {0, 0, 40, 30, 20, 16, 14};
  return kGenes[hits];
}

/// The h highest genes share one tumor row covering 50 of 70 samples and
/// mutate no normal sample; every other gene is sparser. The greedy floor
/// builds exactly that combination, it is the argmax, and every prefix of
/// it bounds at its own F — so the kernel meets F == floor == bound on the
/// winner's prefixes, the case a non-strict cut would drop.
Fixture at_floor_fixture(std::uint32_t hits) {
  const std::uint32_t genes = small_genes(hits);
  Fixture f{{}, FContext{FParams{}, 70, 50}};
  f.data.tumor = BitMatrix(genes, 70);
  f.data.normal = BitMatrix(genes, 50);
  Rng rng(900 + hits);
  for (std::uint32_t g = 0; g < genes; ++g) {
    const bool shared = g >= genes - hits;
    for (std::uint32_t s = 0; s < 70; ++s) {
      if (shared ? s < 50 : rng.bernoulli(0.3)) f.data.tumor.set(g, s);
    }
    for (std::uint32_t s = 0; s < 50; ++s) {
      if (!shared && rng.bernoulli(0.1)) f.data.normal.set(g, s);
    }
  }
  return f;
}

/// Datasets built to stress the kernel's bookkeeping and its prefix cut
/// rather than to look biological: planted combinations, rows duplicated so
/// that F ties are everywhere (the rank tie-break decides every winner), a
/// sparse matrix where most combinations cover nothing, an all-zero tumor
/// matrix (the argmax has TP = 0, the greedy's stop signal), identical rows
/// (every F ties, and every prefix bound equals the incumbent), half the
/// tumor rows empty (their prefixes bound at TP = 0 and are cut), the
/// at-floor fixture, and planted data on tumor rows of 3 and 4 words, where
/// the kernel also cuts leaves on their innermost gene's row count.
std::vector<Fixture> adversarial_fixtures(std::uint32_t hits) {
  const std::uint32_t genes = small_genes(hits);
  std::vector<Fixture> fixtures;
  fixtures.push_back(make_fixture(genes, hits, 4000 + hits, 2));

  Fixture ties{{}, FContext{FParams{}, 70, 50}};
  ties.data.tumor = BitMatrix(genes, 70);
  ties.data.normal = BitMatrix(genes, 50);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < 70; ++s) {
      if ((s + g % 3) % 4 != 0) ties.data.tumor.set(g, s);
    }
    for (std::uint32_t s = 0; s < 50; ++s) {
      if ((s * 7 + g % 2) % 9 == 0) ties.data.normal.set(g, s);
    }
  }
  fixtures.push_back(std::move(ties));

  Fixture sparse{{}, FContext{FParams{}, 70, 50}};
  sparse.data.tumor = BitMatrix(genes, 70);
  sparse.data.normal = BitMatrix(genes, 50);
  Rng rng(77 + hits);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < 70; ++s) {
      if (g == genes - 1 || rng.bernoulli(0.6)) sparse.data.tumor.set(g, s);
    }
  }
  fixtures.push_back(std::move(sparse));

  Fixture no_tp{{}, FContext{FParams{}, 70, 50}};
  no_tp.data.tumor = BitMatrix(genes, 70);
  no_tp.data.normal = BitMatrix(genes, 50);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < 50; ++s) {
      if ((g + s) % 5 == 0) no_tp.data.normal.set(g, s);
    }
  }
  fixtures.push_back(std::move(no_tp));

  Fixture all_tie{{}, FContext{FParams{}, 70, 50}};
  all_tie.data.tumor = BitMatrix(genes, 70);
  all_tie.data.normal = BitMatrix(genes, 50);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < 70; s += 2) all_tie.data.tumor.set(g, s);
  }
  fixtures.push_back(std::move(all_tie));

  Fixture empty_rows{{}, FContext{FParams{}, 70, 50}};
  empty_rows.data.tumor = BitMatrix(genes, 70);
  empty_rows.data.normal = BitMatrix(genes, 50);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < 70; ++s) {
      if (g % 2 == 1 && rng.bernoulli(0.8)) empty_rows.data.tumor.set(g, s);
    }
    for (std::uint32_t s = 0; s < 50; ++s) {
      if (rng.bernoulli(0.05)) empty_rows.data.normal.set(g, s);
    }
  }
  fixtures.push_back(std::move(empty_rows));

  fixtures.push_back(at_floor_fixture(hits));
  for (const std::uint32_t wide : {150u, 190u, 200u}) {
    fixtures.push_back(make_fixture(genes, hits, 4100 + wide + hits, 2, wide));
  }
  return fixtures;
}

/// A top-F tie that only the rank test keeps. With U = {0, ..., h+1}, the
/// two combinations A = {0, ..., h-2, h+1} and B = U minus {f-1, h+1} cover
/// the same 40 tumor samples and no normal one. Every other combination of
/// U covers its own normal sample; every other gene keeps fewer tumor
/// samples. When the scheme has inner loops (d = h - f >= 1), A sits in
/// thread 0 and ranks h+1; B is thread 1's first combination and ranks
/// d+1, so the kernel meets B after A. Every prefix of B bounds at exactly
/// A's F, and at B's top flat gene f the rank bound is
/// ρ = 1 + C(f + d, h) = 2: it keeps B, while C(f + d + 1, h) would have
/// cut B behind A. With d = 0 the kernel visits ranks in order, so there
/// the fixture only pins exactness.
Fixture tie_band_fixture(Scheme scheme) {
  const std::uint32_t h = scheme.hits;
  const std::uint32_t genes = small_genes(h);
  std::vector<std::uint32_t> a = first_combination(h - 1);
  a.push_back(h + 1);
  std::vector<std::uint32_t> b;
  for (std::uint32_t g = 0; g <= h; ++g) {
    if (g != scheme.flat - 1) b.push_back(g);
  }
  std::vector<std::vector<std::uint32_t>> others;
  auto combo = first_combination(h);
  do {
    if (combo != a && combo != b) others.push_back(combo);
  } while (next_combination_colex(combo, h + 2));

  const auto normal_samples = static_cast<std::uint32_t>(others.size());
  Fixture fx{{}, FContext{FParams{}, 70, normal_samples}};
  fx.data.tumor = BitMatrix(genes, 70);
  fx.data.normal = BitMatrix(genes, normal_samples);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < 70; ++s) {
      const bool mutated = g <= h + 1 ? s < 40 : s < 50 && (s + g) % 3 != 0;
      if (mutated) fx.data.tumor.set(g, s);
    }
  }
  for (std::uint32_t n = 0; n < normal_samples; ++n) {
    for (const std::uint32_t g : others[n]) fx.data.normal.set(g, n);
  }
  return fx;
}

/// Independent reference for threads [begin, end): every h-combination whose
/// flat prefix (its `flat` smallest genes) ranks inside the range, scored by
/// BitMatrix::intersect_count and merged under (F desc, rank asc).
EvalResult brute_force_range(const Fixture& f, Scheme scheme, u64 begin, u64 end,
                             u64* combinations = nullptr) {
  EvalResult best;
  u64 count = 0;
  auto combo = first_combination(scheme.hits);
  u64 rank = 0;
  do {
    const u64 prefix =
        rank_combination(std::span<const std::uint32_t>(combo.data(), scheme.flat));
    if (prefix >= begin && prefix < end) {
      const u64 tp = f.data.tumor.intersect_count(combo);
      const u64 nh = f.data.normal.intersect_count(combo);
      EvalResult candidate;
      candidate.valid = true;
      candidate.f = f_score(f.ctx, tp, nh);
      candidate.combo_rank = rank;
      candidate.tp = tp;
      candidate.tn = f.ctx.normal_total - nh;
      best = merge_results(best, candidate);
      ++count;
    }
    ++rank;
  } while (next_combination_colex(combo, f.data.tumor.genes()));
  if (combinations) *combinations = count;
  return best;
}

void expect_same(const EvalResult& a, const EvalResult& b, const std::string& context) {
  ASSERT_EQ(a.valid, b.valid) << context;
  if (!a.valid) return;
  EXPECT_EQ(a.combo_rank, b.combo_rank) << context;
  EXPECT_EQ(a.f, b.f) << context;
  EXPECT_EQ(a.tp, b.tp) << context;
  EXPECT_EQ(a.tn, b.tn) << context;
}

/// Turns call counting on and restores the backend and the counting state
/// on scope exit, failed assertions included.
class CountingScope {
 public:
  CountingScope() : backend_(active_backend()), counting_(set_call_counting(true)) {}
  ~CountingScope() {
    set_call_counting(counting_);
    set_backend(backend_);
  }

 private:
  BitopsBackend backend_;
  bool counting_;
};

/// Ragged λ ranges over [0, total): empty, single-thread, the zero-work
/// tail, and random spans.
std::vector<std::pair<u64, u64>> ragged_ranges(u64 total, std::uint64_t seed) {
  std::vector<std::pair<u64, u64>> ranges = {
      {0, total}, {0, 1}, {total / 2, total / 2}, {total - 1, total}, {total / 3, total}};
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    u64 a = rng.uniform(total + 1), b = rng.uniform(total + 1);
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b);
  }
  return ranges;
}

// --- combinadics ---------------------------------------------------------------

TEST(Quad, RankFirstValues) {
  // Colex order: {0,1,2,3} {0,1,2,4} {0,1,3,4} {0,2,3,4} {1,2,3,4} {0,1,2,5}...
  EXPECT_EQ(rank_quad({0, 1, 2, 3}), 0u);
  EXPECT_EQ(rank_quad({0, 1, 2, 4}), 1u);
  EXPECT_EQ(rank_quad({0, 1, 3, 4}), 2u);
  EXPECT_EQ(rank_quad({1, 2, 3, 4}), 4u);
  EXPECT_EQ(rank_quad({0, 1, 2, 5}), 5u);
}

TEST(Quad, RoundTripExhaustive) {
  const u64 total = quartic(30);
  for (u64 lambda = 0; lambda < total; ++lambda) {
    const Quad q = unrank_quad(lambda);
    ASSERT_LT(q.i, q.j);
    ASSERT_LT(q.j, q.k);
    ASSERT_LT(q.k, q.l);
    ASSERT_LT(q.l, 30u);
    ASSERT_EQ(rank_quad(q), lambda) << lambda;
  }
}

TEST(Quad, RoundTripAtScale) {
  // Includes the near-u64-max region where the C(l,4) fix-up probes exceed
  // u64 (the overflow a naive implementation hangs on).
  for (const u64 lambda : {u64{0}, quartic(19411) - 1, u64{1} << 50,
                           (u64{1} << 62) + 123456789, ~u64{0} - 5, ~u64{0}}) {
    EXPECT_EQ(rank_quad(unrank_quad(lambda)), lambda) << lambda;
  }
}

TEST(Quad, MatchesGenericUnranking) {
  for (u64 lambda = 0; lambda < quartic(15); ++lambda) {
    const Quad q = unrank_quad(lambda);
    const auto generic = unrank_combination(lambda, 4);
    EXPECT_EQ(generic, (std::vector<std::uint32_t>{q.i, q.j, q.k, q.l}));
  }
}

TEST(Quad, QuarticLevelBoundaries) {
  for (std::uint32_t l = 3; l < 150; ++l) {
    EXPECT_EQ(quartic_level(quartic(l)), l);
    EXPECT_EQ(quartic_level(quartic(l + 1) - 1), l);
  }
  EXPECT_EQ(quartic_level(quartic(19411)), 19411u);
}

TEST(Quintic, MatchesBinomial) {
  for (u64 n = 0; n <= 1000; n += 13) EXPECT_EQ(quintic(n), binomial(n, 5));
  EXPECT_EQ(quintic(5), 1u);
  EXPECT_EQ(quintic(4), 0u);
  // Find the largest n whose C(n,5) fits u64 and verify quintic there.
  u64 n = 18000;
  while (binomial_checked(n + 1, 5).has_value()) ++n;
  EXPECT_GT(n, 18400u);
  EXPECT_LT(n, 18800u);
  EXPECT_EQ(quintic(n), binomial(n, 5));
  EXPECT_FALSE(binomial_checked(n + 1, 5).has_value());
}

TEST(Combinadics, ColexTopIsTheLargestFittingBinomial) {
  for (std::uint32_t k = 1; k <= 7; ++k) {
    std::uint32_t top = k - 1;
    for (u64 lambda = 0; lambda < 5000; ++lambda) {
      while (binomial(top + 1, k) <= lambda) ++top;
      ASSERT_EQ(colex_top(lambda, k), top) << "k=" << k << " lambda=" << lambda;
    }
  }
}

// --- thread spaces -------------------------------------------------------------

TEST(SchemeThreads, CountsMatchCombinatorics) {
  for (std::uint32_t hits = 2; hits <= 6; ++hits) {
    for (std::uint32_t flat = 1; flat <= hits; ++flat) {
      EXPECT_EQ(scheme_threads({hits, flat}, 100), binomial(100, flat));
    }
  }
}

TEST(SchemeThreads, WorkloadSpreadMatchesPaper) {
  // Paper §III-B: max-min per-thread work is ~C(G,2) for 2x2 but only ~G for
  // 3x1 — the whole reason the 3x1 scheme scales.
  const std::uint32_t G = 100;
  EXPECT_EQ(scheme_thread_work({4, 2}, G, 0), triangular(G - 2));
  EXPECT_EQ(scheme_thread_work({4, 2}, G, triangular(G) - 1), 0u);
  EXPECT_EQ(scheme_thread_work({4, 3}, G, 0), static_cast<u64>(G) - 3);
  EXPECT_EQ(scheme_thread_work({4, 3}, G, tetrahedral(G) - 1), 0u);
}

TEST(SchemeThreads, RejectsSpacesWhoseRanksOverflow) {
  // C(18582, 5) > 2^64: the 5-hit ranks of such a matrix cannot be
  // represented. The last thread of the 4x1 space once returned valid=1 with
  // a wrapped rank that unranked to genes the thread never scored; every
  // entry point must now refuse the space instead.
  const std::uint32_t genes = 18582;
  const Scheme scheme{5, 4};
  EXPECT_THROW((void)scheme_threads(scheme, genes), std::invalid_argument);
  EXPECT_THROW((void)scheme_thread_work(scheme, genes, 0), std::invalid_argument);
  EXPECT_THROW((void)WorkloadModel::for_scheme(scheme, genes), std::invalid_argument);
  EXPECT_THROW((void)scheme_stats(scheme, genes, 0, 1, {}, 1, 1), std::invalid_argument);
  BitMatrix tumor(genes, 8);
  BitMatrix normal(genes, 8);
  const FContext ctx{FParams{}, 8, 8};
  const u64 lambda = quartic(genes - 1) - 1;
  try {
    (void)evaluate_range(tumor, normal, ctx, scheme, lambda, lambda + 1);
    FAIL() << "evaluate_range accepted G=18582, h=5";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("G = 18582"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("h = 5"), std::string::npos) << e.what();
  }
  // One gene fewer than the last representable 5-hit space still works.
  EXPECT_EQ(scheme_threads(scheme, 18580), quartic(18580));
}

TEST(SchemeThreads, RejectsMalformedSchemes) {
  for (const Scheme bad : {Scheme{4, 0}, Scheme{4, 5}, Scheme{1, 1}, Scheme{0, 0},
                           Scheme{kMaxSchemeHits + 1, 1}}) {
    EXPECT_THROW((void)scheme_threads(bad, 40), std::invalid_argument) << scheme_name(bad);
  }
}

TEST(SchemeThreads, NamesAreStable) {
  EXPECT_EQ(scheme_name({4, 2}), "2x2");
  EXPECT_EQ(scheme_name({4, 3}), "3x1");
  EXPECT_EQ(scheme_name({4, 4}), "4x1");
  EXPECT_EQ(scheme_name({4, 1}), "1x3");
  EXPECT_EQ(scheme_name({3, 2}), "2x1");
  EXPECT_EQ(scheme_name({2, 1}), "1x1");
  EXPECT_EQ(scheme_name({5, 3}), "3x2");
}

// --- every (hits, flat) for hits in 2..6 ----------------------------------------

class AllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AllSchemes, WorkSumsToWholeSpace) {
  const Scheme scheme = GetParam();
  const std::uint32_t G = small_genes(scheme.hits);
  u64 total = 0;
  for (u64 lambda = 0; lambda < scheme_threads(scheme, G); ++lambda) {
    total += scheme_thread_work(scheme, G, lambda);
  }
  EXPECT_EQ(total, binomial(G, scheme.hits));
}

TEST_P(AllSchemes, WorkloadLevelsMatchThreadWork) {
  const Scheme scheme = GetParam();
  const std::uint32_t G = small_genes(scheme.hits);
  const auto model = WorkloadModel::for_scheme(scheme, G);
  EXPECT_EQ(model.total_threads(), scheme_threads(scheme, G));
  EXPECT_TRUE(model.total_work() == static_cast<u128>(binomial(G, scheme.hits)));
  for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
    ASSERT_EQ(model.work_at(lambda), scheme_thread_work(scheme, G, lambda)) << lambda;
  }
  // The level count prices the modeled O(G) scheduler: one level when every
  // loop is flattened, one per top flat gene otherwise.
  if (scheme.flat == scheme.hits) {
    EXPECT_EQ(model.levels().size(), 1u);
  } else {
    EXPECT_EQ(model.levels().size(), G - scheme.flat + 1);
  }
}

TEST_P(AllSchemes, FullRangeMatchesSerial) {
  const Scheme scheme = GetParam();
  const auto f = make_fixture(small_genes(scheme.hits), scheme.hits, 1234 + scheme.flat, 2);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
  const EvalResult kernel = evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, 0,
                                           scheme_threads(scheme, f.data.genes()));
  ASSERT_TRUE(kernel.valid);
  expect_same(kernel, serial, scheme_name(scheme));
}

TEST_P(AllSchemes, RaggedRangesMatchReferenceOnAdversarialData) {
  // Each ragged range against the brute-force scan of exactly the
  // combinations its threads own, and the ranges' merge against the serial
  // reference's best — on data where ties and empty covers dominate. Without
  // a floor every range is exact. With the greedy floor a range is exact
  // when its best reaches the floor and otherwise returns nothing that
  // reaches it, so merges with and without the floor both equal the serial
  // reference.
  const Scheme scheme = GetParam();
  const auto fixtures = adversarial_fixtures(scheme.hits);
  u64 pruned = 0;
  for (std::size_t which = 0; which < fixtures.size(); ++which) {
    const Fixture& f = fixtures[which];
    const u64 total = scheme_threads(scheme, f.data.genes());
    const EvalResult serial =
        serial_find_best(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
    const double floor = greedy_floor(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
    ASSERT_LE(floor, serial.f) << "fixture " << which;
    EvalResult merged, merged_floor;
    u64 cursor = 0;
    Rng rng(31 * which + scheme.flat);
    while (cursor < total) {
      const u64 stop = std::min(total, cursor + 1 + rng.uniform(total / 5 + 2));
      merged = merge_results(
          merged, evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, cursor, stop));
      KernelCounts counts;
      merged_floor = merge_results(
          merged_floor, evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, cursor,
                                       stop, floor, &counts));
      pruned += counts.pruned;
      cursor = stop;
    }
    expect_same(merged, serial, "fixture " + std::to_string(which) + " merged");
    expect_same(merged_floor, serial, "fixture " + std::to_string(which) + " merged, floor");
    for (const auto& [a, b] : ragged_ranges(total, 17 * which + scheme.hits)) {
      const std::string context = "fixture " + std::to_string(which) + " [" +
                                  std::to_string(a) + "," + std::to_string(b) + ")";
      const EvalResult exact = brute_force_range(f, scheme, a, b);
      expect_same(evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, a, b), exact,
                  context);
      const EvalResult floored =
          evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, floor);
      if (exact.valid && exact.f >= floor) {
        expect_same(floored, exact, context + " floor");
      } else {
        EXPECT_TRUE(!floored.valid || floored.f < floor) << context << " floor";
      }
    }
  }
  EXPECT_GT(pruned, 0u) << "no fixture exercised the cut";
}

TEST_P(AllSchemes, CombinationAtTheFloorIsNeverCut) {
  // The winner's F equals the floor and each of its prefixes bounds at that
  // same F; only a strict cut keeps it.
  const Scheme scheme = GetParam();
  const Fixture f = at_floor_fixture(scheme.hits);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
  const double floor = greedy_floor(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
  ASSERT_EQ(serial.f, floor);
  ASSERT_EQ(serial.tp, 50u);
  const EvalResult kernel =
      evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, 0,
                     scheme_threads(scheme, f.data.genes()), floor);
  expect_same(kernel, serial, scheme_name(scheme));
}

TEST_P(AllSchemes, TieBandKeepsTheLowestRankTie) {
  // See tie_band_fixture: B, the winner, is met after the tie A of higher
  // rank, and each of its prefixes bounds at A's F; only the rank bound ρ
  // keeps it, with or without a floor, the floor at the winner's F included.
  const Scheme scheme = GetParam();
  const Fixture fx = tie_band_fixture(scheme);
  const u64 total = scheme_threads(scheme, fx.data.genes());
  const EvalResult exact = brute_force_range(fx, scheme, 0, total);
  ASSERT_TRUE(exact.valid);
  ASSERT_EQ(exact.tp, 40u);
  ASSERT_EQ(exact.tn, fx.ctx.normal_total);
  ASSERT_EQ(exact.combo_rank, scheme.hits - scheme.flat + 1);
  const double greedy = greedy_floor(fx.data.tumor, fx.data.normal, fx.ctx, scheme.hits);
  ASSERT_LT(greedy, exact.f);
  for (const double floor : {kNoFloor, greedy, exact.f}) {
    for (const u64 end : {u64{2}, total}) {
      expect_same(evaluate_range(fx.data.tumor, fx.data.normal, fx.ctx, scheme, 0, end, floor),
                  end == total ? exact : brute_force_range(fx, scheme, 0, end),
                  scheme_name(scheme) + " threads [0," + std::to_string(end) + "), floor " +
                      std::to_string(floor));
    }
  }
}

TEST_P(AllSchemes, CountedCombinationsMatchSchemeStats) {
  // The kernel's `combinations` is a real count of what it scored plus what
  // it cut; it must agree with the closed form (and with the reference's
  // count) over ragged ranges, or the host sweep's "visits each combination
  // once" check means nothing. The closed form's traffic fields are pinned
  // by tests/test_scheme_stats.cpp. The hot-path call contract rides along,
  // with and without the greedy floor, on tumor rows of 2 and of 3 words
  // (where leaves are also cut on their row count): a pruned combination
  // costs no dispatched two-row and_popcount, a leaf-cut one costs its
  // tumor count, and every other one costs one per matrix.
  const Scheme scheme = GetParam();
  for (const std::uint32_t tumor_samples : {70u, 150u}) {
    const auto f = make_fixture(small_genes(scheme.hits), scheme.hits, 77, 2, tumor_samples);
    const std::uint32_t wt = f.data.tumor.words_per_row();
    const std::uint32_t wn = f.data.normal.words_per_row();
    const u64 total = scheme_threads(scheme, f.data.genes());
    const double greedy = greedy_floor(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
    for (const double floor : {kNoFloor, greedy}) {
      for (const auto& [a, b] : ragged_ranges(total, 5 + scheme.flat)) {
        const std::string where = std::to_string(tumor_samples) + " samples" +
                                  (floor == kNoFloor ? "" : ", floor") + " [" +
                                  std::to_string(a) + "," + std::to_string(b) + ")";
        KernelCounts counted;
        const bool was_counting = set_call_counting(true);
        const BitopsCallCounts calls_before = thread_bitops_calls();
        evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, floor, &counted);
        const BitopsCallCounts calls = thread_bitops_calls() - calls_before;
        set_call_counting(was_counting);
        EXPECT_EQ(calls.and2,
                  2 * (counted.combinations - counted.pruned) - counted.leaf_cut)
            << where;
        const KernelStats modeled = scheme_stats(scheme, f.data.genes(), a, b, {}, wt, wn);
        u64 brute = 0;
        (void)brute_force_range(f, scheme, a, b, &brute);
        EXPECT_EQ(counted.combinations, modeled.combinations) << where;
        EXPECT_EQ(counted.combinations, brute) << where;
      }
    }
  }
}

TEST_P(AllSchemes, SharedRowCountsLeaveEveryResultAndCount) {
  // evaluate_range given the evaluation's tumor_row_counts table (what the
  // evaluators pass) against the same call counting rows itself: the same
  // winner, the same KernelCounts and the same dispatched calls, with and
  // without the greedy floor, on tumor rows of 2 words (no row-count cut)
  // and of 3 (the cut reads the table). The call identity rides along.
  const Scheme scheme = GetParam();
  const CountingScope scope;
  for (const std::uint32_t tumor_samples : {70u, 150u}) {
    const auto f = make_fixture(small_genes(scheme.hits), scheme.hits, 91, 2, tumor_samples);
    std::vector<std::uint64_t> table(f.data.genes());
    tumor_row_counts(f.data.tumor, table);
    const u64 total = scheme_threads(scheme, f.data.genes());
    const double greedy = greedy_floor(f.data.tumor, f.data.normal, f.ctx, scheme.hits, table);
    for (const double floor : {kNoFloor, greedy}) {
      for (const auto& [a, b] : ragged_ranges(total, 11 + scheme.flat)) {
        const std::string where = std::to_string(tumor_samples) + " samples" +
                                  (floor == kNoFloor ? "" : ", floor") + " [" +
                                  std::to_string(a) + "," + std::to_string(b) + ")";
        KernelCounts own, shared;
        BitopsCallCounts before = thread_bitops_calls();
        const EvalResult counted =
            evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, floor, &own);
        const BitopsCallCounts own_calls = thread_bitops_calls() - before;
        before = thread_bitops_calls();
        const EvalResult given = evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, a, b,
                                                floor, &shared, nullptr, table);
        const BitopsCallCounts shared_calls = thread_bitops_calls() - before;
        expect_same(given, counted, where);
        EXPECT_EQ(shared.combinations, own.combinations) << where;
        EXPECT_EQ(shared.pruned, own.pruned) << where;
        EXPECT_EQ(shared.leaf_cut, own.leaf_cut) << where;
        EXPECT_EQ(shared.threads_skipped, own.threads_skipped) << where;
        EXPECT_EQ(shared_calls.and2, own_calls.and2) << where;
        EXPECT_EQ(shared_calls.and_rows, own_calls.and_rows) << where;
        EXPECT_EQ(shared_calls.and2, 2 * (shared.combinations - shared.pruned) - shared.leaf_cut)
            << where;
      }
    }
    for (const std::size_t size : {table.size() - 1, table.size() + 1}) {
      const std::vector<std::uint64_t> wrong(size);
      EXPECT_THROW((void)evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, 0, total,
                                        kNoFloor, nullptr, nullptr, wrong),
                   std::invalid_argument)
          << size << " counts";
    }
  }
}

TEST_P(AllSchemes, MemOptsNeverChangeTheResult) {
  // MemOpts only price a modeled launch (GpuDevice::run hands them to
  // scheme_stats); the device's winner is the kernel's under every option.
  const Scheme scheme = GetParam();
  const auto f = make_fixture(small_genes(scheme.hits), scheme.hits, 555, 2);
  const Partition whole{0, scheme_threads(scheme, f.data.genes())};
  const EvalResult plain =
      evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, whole.begin, whole.end);
  const GpuDevice device;
  for (const MemOpts opts : {MemOpts{}, MemOpts{.prefetch_i = true},
                             MemOpts{.prefetch_i = true, .prefetch_j = true}}) {
    expect_same(device.run(f.data.tumor, f.data.normal, f.ctx, scheme, whole, opts).best, plain,
                scheme_name(scheme));
  }
}

std::vector<Scheme> all_schemes() {
  std::vector<Scheme> schemes;
  for (std::uint32_t hits = 2; hits <= 6; ++hits) {
    for (std::uint32_t flat = 1; flat <= hits; ++flat) schemes.push_back({hits, flat});
  }
  return schemes;
}

INSTANTIATE_TEST_SUITE_P(HitsTwoToSix, AllSchemes, ::testing::ValuesIn(all_schemes()),
                         [](const auto& info) {
                           return "h" + std::to_string(info.param.hits) + "_" +
                                  scheme_name(info.param);
                         });

// --- targeted behaviour -----------------------------------------------------------

TEST(Schemes, EmptyRangeIsInvalid) {
  const auto f = make_fixture(15, 4, 3);
  const EvalResult r = evaluate_range(f.data.tumor, f.data.normal, f.ctx, {4, 3}, 5, 5);
  EXPECT_FALSE(r.valid);
}

TEST(Schemes, NegativeAlphaTurnsTheCutOff) {
  // With α < 0, F falls as TP grows, so f_score(TP(P), 0) no longer bounds
  // the extensions of P; the kernel must score everything and stay exact.
  auto f = make_fixture(16, 4, 31);
  f.ctx.params.alpha = -0.5;
  const Scheme scheme{4, 3};
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 4);
  KernelCounts counts;
  const EvalResult kernel =
      evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, 0, scheme_threads(scheme, 16),
                     greedy_floor(f.data.tumor, f.data.normal, f.ctx, 4), &counts);
  expect_same(kernel, serial, "alpha = -0.5");
  EXPECT_EQ(counts.pruned, 0u);
}

// --- every compiled kernel body ----------------------------------------------------

/// Random rows at the given sample counts: tumor dense enough that prefixes
/// survive the cut, normal sparse.
Fixture shaped_fixture(std::uint32_t genes, std::uint32_t tumor_samples,
                       std::uint32_t normal_samples, std::uint64_t seed) {
  Fixture f{{}, FContext{FParams{}, tumor_samples, normal_samples}};
  f.data.tumor = BitMatrix(genes, tumor_samples);
  f.data.normal = BitMatrix(genes, normal_samples);
  Rng rng(seed);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < tumor_samples; ++s) {
      if (rng.bernoulli(0.45)) f.data.tumor.set(g, s);
    }
    for (std::uint32_t s = 0; s < normal_samples; ++s) {
      if (rng.bernoulli(0.1)) f.data.normal.set(g, s);
    }
  }
  return f;
}

/// One kernel run: its winner, its counts and the kernel calls it made.
struct BodyRun {
  EvalResult result;
  KernelCounts counts;
  BitopsCallCounts calls;
};

BodyRun run_body(BitopsBackend backend, const Fixture& f, Scheme scheme, u64 begin, u64 end,
                 double floor) {
  EXPECT_TRUE(set_backend(backend));
  BodyRun run;
  const BitopsCallCounts before = thread_bitops_calls();
  run.result =
      evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, begin, end, floor, &run.counts);
  run.calls = thread_bitops_calls() - before;
  return run;
}

TEST(KernelBodies, EveryBodyAgreesAtEveryRowWidth) {
  // The scalar backend runs the portable body. The AVX2 backend runs a
  // POPCNT body that scores and folds inline when both matrices' rows are
  // 1-2 words, and calls the dispatched kernels otherwise (0-word normal
  // rows, 3+ words, or a mix). Every body must agree on the winner, on the
  // counts and on the kernel calls it reports, with and without a floor and
  // with the cut off (α < 0).
  const CountingScope scope;
  const bool avx2 = backend_supported(BitopsBackend::kAvx2);
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {70, 0},  {40, 0},   {1, 1},    {56, 44},   {64, 64},  {120, 80},
      {128, 65}, {150, 190}, {70, 150}, {150, 50}, {200, 129}};
  const Scheme schemes[] = {{2, 1}, {3, 1}, {3, 3}, {4, 1}, {4, 2}, {4, 3}, {4, 4}, {5, 3}};
  std::uint64_t seed = 0;
  for (const auto& [tumor_samples, normal_samples] : shapes) {
    for (const Scheme scheme : schemes) {
      for (const double alpha : {0.1, -0.5}) {
        auto f = shaped_fixture(small_genes(scheme.hits), tumor_samples, normal_samples, ++seed);
        f.ctx.params.alpha = alpha;
        const u64 total = scheme_threads(scheme, f.data.genes());
        const std::string shape = std::to_string(tumor_samples) + "/" +
                                  std::to_string(normal_samples) + " samples, " +
                                  scheme_name(scheme) + ", alpha " + std::to_string(alpha);
        expect_same(run_body(BitopsBackend::kScalar, f, scheme, 0, total, kNoFloor).result,
                    brute_force_range(f, scheme, 0, total), shape + ", brute force");
        const double greedy = greedy_floor(f.data.tumor, f.data.normal, f.ctx, scheme.hits);
        for (const double floor : {kNoFloor, greedy}) {
          for (const auto& [a, b] : ragged_ranges(total, seed)) {
            const std::string where = shape + (floor == kNoFloor ? ", no floor" : ", floor") +
                                      ", [" + std::to_string(a) + "," + std::to_string(b) + ")";
            const BodyRun portable = run_body(BitopsBackend::kScalar, f, scheme, a, b, floor);
            if (alpha < 0.0) {
              EXPECT_EQ(portable.counts.pruned, 0u) << where;
            }
            if (!avx2) continue;
            const BodyRun popcnt = run_body(BitopsBackend::kAvx2, f, scheme, a, b, floor);
            expect_same(popcnt.result, portable.result, where);
            EXPECT_EQ(popcnt.counts.combinations, portable.counts.combinations) << where;
            EXPECT_EQ(popcnt.counts.pruned, portable.counts.pruned) << where;
            EXPECT_EQ(popcnt.calls.and2, portable.calls.and2) << where;
            EXPECT_EQ(popcnt.calls.and_rows, portable.calls.and_rows) << where;
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

// --- the greedy floor -------------------------------------------------------------

/// greedy_floor as it was before it read row counts: every step scores
/// every gene not yet picked. The bounded floor must return this value
/// bit for bit.
double reference_greedy_floor(const BitMatrix& tumor, const BitMatrix& normal,
                              const FContext& ctx, std::uint32_t hits) {
  const std::uint32_t genes = tumor.genes();
  if (hits == 0 || genes < hits) return kNoFloor;
  std::vector<std::uint64_t> prefix(tumor.words_per_row(), ~std::uint64_t{0});
  std::vector<std::uint32_t> combo;
  std::uint64_t tp = 0;
  for (std::uint32_t step = 0; step < hits; ++step) {
    std::uint32_t pick = genes;
    for (std::uint32_t g = 0; g < genes; ++g) {
      if (std::find(combo.begin(), combo.end(), g) != combo.end()) continue;
      const std::uint64_t kept = and_popcount(prefix, tumor.row(g));
      if (pick == genes || kept > tp) {
        pick = g;
        tp = kept;
      }
    }
    combo.push_back(pick);
    and_rows(prefix, prefix, tumor.row(pick));
  }
  return f_score(ctx, tp, normal.intersect_count(combo));
}

/// Floor-oracle matrices at `samples` tumor samples: random rows at three
/// densities; tie-heavy rows (copies of a few rows, and rotations of one
/// row, so that many genes share one count); a step-1 tie that only a gene
/// whose row count equals the best kept count wins; and rows that are
/// mostly or entirely zero.
std::vector<Fixture> floor_fixtures(std::uint32_t genes, std::uint32_t samples,
                                    std::uint64_t seed) {
  std::vector<Fixture> fixtures;
  Rng rng(seed);
  const auto blank = [&] {
    Fixture f{{}, FContext{FParams{}, samples, 40}};
    f.data.tumor = BitMatrix(genes, samples);
    f.data.normal = BitMatrix(genes, 40);
    for (std::uint32_t g = 0; g < genes; ++g) {
      for (std::uint32_t s = 0; s < 40; ++s) {
        if (rng.bernoulli(0.1)) f.data.normal.set(g, s);
      }
    }
    return f;
  };
  for (const double density : {0.05, 0.3, 0.7}) {
    Fixture f = blank();
    for (std::uint32_t g = 0; g < genes; ++g) {
      for (std::uint32_t s = 0; s < samples; ++s) {
        if (rng.bernoulli(density)) f.data.tumor.set(g, s);
      }
    }
    fixtures.push_back(std::move(f));
  }
  Fixture copies = blank();
  for (std::uint32_t g = 0; g < genes; ++g) {
    const std::uint32_t source = static_cast<std::uint32_t>(rng.uniform(3));
    for (std::uint32_t s = 0; s < samples; ++s) {
      if ((s * (source + 2) + source) % 5 < 2) copies.data.tumor.set(g, s);
    }
  }
  fixtures.push_back(std::move(copies));
  Fixture rotations = blank();
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < samples; ++s) {
      if (((s + g) % samples) % 3 == 0) rotations.data.tumor.set(g, s);
    }
  }
  fixtures.push_back(std::move(rotations));
  // Gene 1 = [0, S/2) is step 0's pick. At step 1 gene 2 = [0, S/8) ∪
  // [S/2, 3S/4) is visited first and keeps S/8; gene 0 = [0, S/8) keeps as
  // much with a row count of exactly S/8 and wins on index, so a step may
  // stop only below the best kept count, not at it. The normal rows make
  // the two picks' F differ.
  Fixture subset_tie{{}, FContext{FParams{}, samples, 40}};
  subset_tie.data.tumor = BitMatrix(genes, samples);
  subset_tie.data.normal = BitMatrix(genes, 40);
  for (std::uint32_t s = 0; s < samples; ++s) {
    if (s < samples / 8) subset_tie.data.tumor.set(0, s);
    if (s < samples / 2) subset_tie.data.tumor.set(1, s);
    if (s < samples / 8 || (s >= samples / 2 && s < 3 * samples / 4)) {
      subset_tie.data.tumor.set(2, s);
    }
  }
  for (std::uint32_t s = 0; s < 10; ++s) {
    subset_tie.data.normal.set(1, s);
    subset_tie.data.normal.set(2, s);
  }
  fixtures.push_back(std::move(subset_tie));
  Fixture sparse_rows = blank();
  for (std::uint32_t g = 0; g < genes; g += 3) {
    for (std::uint32_t s = 0; s < samples; ++s) {
      if (rng.bernoulli(0.4)) sparse_rows.data.tumor.set(g, s);
    }
  }
  fixtures.push_back(std::move(sparse_rows));
  fixtures.push_back(blank());  // every tumor row zero
  return fixtures;
}

TEST(GreedyFloor, MatchesTheScoreEveryGeneFloorBitForBit) {
  // The bounded floor against the reference on tumor rows of 1, 2, 3 and
  // 25 words at hits 2-5, with and without a given row-count table, under
  // every supported backend (the table's count loop is dispatched with it).
  // At 3 genes, hits 4 and 5 have no floor.
  const BitopsBackend previous = active_backend();
  std::vector<BitopsBackend> backends = {BitopsBackend::kScalar};
  if (backend_supported(BitopsBackend::kAvx2)) backends.push_back(BitopsBackend::kAvx2);
  std::uint64_t seed = 0;
  for (const std::uint32_t samples : {40u, 100u, 150u, 1600u}) {
    for (const std::uint32_t genes : {3u, 7u, 30u}) {
      const auto fixtures = floor_fixtures(genes, samples, ++seed);
      for (std::size_t which = 0; which < fixtures.size(); ++which) {
        const Fixture& f = fixtures[which];
        for (const BitopsBackend backend : backends) {
          ASSERT_TRUE(set_backend(backend));
          std::vector<std::uint64_t> table(genes);
          tumor_row_counts(f.data.tumor, table);
          for (std::uint32_t g = 0; g < genes; ++g) {
            ASSERT_EQ(table[g], popcount_row(f.data.tumor.row(g))) << "gene " << g;
          }
          for (std::uint32_t hits = 2; hits <= 5; ++hits) {
            const std::string where = std::to_string(samples) + " samples, " +
                                      std::to_string(genes) + " genes, fixture " +
                                      std::to_string(which) + ", " + backend_name(backend) +
                                      ", hits " + std::to_string(hits);
            const double expected =
                reference_greedy_floor(f.data.tumor, f.data.normal, f.ctx, hits);
            if (hits > genes) {
              EXPECT_EQ(expected, kNoFloor) << where;
            }
            EXPECT_EQ(greedy_floor(f.data.tumor, f.data.normal, f.ctx, hits), expected) << where;
            EXPECT_EQ(greedy_floor(f.data.tumor, f.data.normal, f.ctx, hits, table), expected)
                << where;
          }
        }
      }
    }
  }
  set_backend(previous);
}

TEST(GreedyFloor, EveryBackendCountsTheSameCalls) {
  // The AVX2 backend ANDs and counts 1-2-word tumor rows inline and credits
  // the calls; the value and the kernel calls it reports match the scalar
  // backend's at every width, at hits past the kernel's depth limit too
  // (the floor keeps no fixed-size buffer).
  if (!backend_supported(BitopsBackend::kAvx2)) GTEST_SKIP() << "no AVX2 backend";
  const CountingScope scope;
  std::uint64_t seed = 100;
  for (const std::uint32_t samples : {40u, 100u, 150u, 1600u}) {
    for (const Fixture& f : floor_fixtures(40, samples, ++seed)) {
      for (const std::uint32_t hits : {2u, 3u, 5u, kMaxSchemeHits + 4}) {
        const std::string where =
            std::to_string(samples) + " samples, hits " + std::to_string(hits);
        double value[2];
        BitopsCallCounts calls[2];
        for (const int avx2 : {0, 1}) {
          ASSERT_TRUE(set_backend(avx2 != 0 ? BitopsBackend::kAvx2 : BitopsBackend::kScalar));
          const BitopsCallCounts before = thread_bitops_calls();
          value[avx2] = greedy_floor(f.data.tumor, f.data.normal, f.ctx, hits);
          calls[avx2] = thread_bitops_calls() - before;
        }
        EXPECT_EQ(value[1], value[0]) << where;
        EXPECT_EQ(value[0], reference_greedy_floor(f.data.tumor, f.data.normal, f.ctx, hits))
            << where;
        EXPECT_EQ(calls[1].and2, calls[0].and2) << where;
        EXPECT_EQ(calls[1].and_rows, calls[0].and_rows) << where;
        EXPECT_GT(calls[0].and2, 0u) << where;
      }
    }
  }
}

TEST(GreedyFloor, WrongSizeRowCountTablesAreRejected) {
  const auto f = make_fixture(15, 3, 8);
  for (const std::size_t size : {std::size_t{14}, std::size_t{16}}) {
    std::vector<std::uint64_t> table(size);
    EXPECT_THROW(tumor_row_counts(f.data.tumor, table), std::invalid_argument) << size;
    EXPECT_THROW((void)greedy_floor(f.data.tumor, f.data.normal, f.ctx, 3, table),
                 std::invalid_argument)
        << size;
  }
  std::vector<std::uint64_t> table(14);
  try {
    (void)greedy_floor(f.data.tumor, f.data.normal, f.ctx, 3, table);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("14"), std::string::npos) << what;
    EXPECT_NE(what.find("15"), std::string::npos) << what;
  }
}

TEST(Schemes, RangePastTheThreadSpaceIsRejected) {
  const auto f = make_fixture(15, 4, 3);
  const u64 threads = scheme_threads({4, 3}, 15);
  EXPECT_THROW((void)evaluate_range(f.data.tumor, f.data.normal, f.ctx, {4, 3}, threads - 1,
                                    threads + 1),
               std::invalid_argument);
  EXPECT_TRUE(
      evaluate_range(f.data.tumor, f.data.normal, f.ctx, {4, 3}, 0, threads).valid);
}

TEST(Schemes, WinnerIsPlantedCombination) {
  // With clean planted data the best 3-hit combination must be one of the
  // planted driver sets.
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 60;
  spec.normal_samples = 60;
  spec.hits = 3;
  spec.num_combinations = 2;
  spec.background_rate = 0.01;
  spec.seed = 4242;
  const Dataset data = generate_dataset(spec);
  const FContext ctx{FParams{}, spec.tumor_samples, spec.normal_samples};
  const EvalResult best =
      evaluate_range(data.tumor, data.normal, ctx, {3, 2}, 0, scheme_threads({3, 2}, 30));
  ASSERT_TRUE(best.valid);
  const auto genes = unrank_combination(best.combo_rank, 3);
  const bool is_planted = genes == data.planted[0] || genes == data.planted[1];
  EXPECT_TRUE(is_planted) << "winner {" << genes[0] << "," << genes[1] << "," << genes[2] << "}";
}

TEST(Schemes, TieBreakPicksLowestRank) {
  // Identical gene rows => every combination has exactly equal F; the lower
  // colex rank must win on every scheme.
  BitMatrix tumor(7, 10);
  BitMatrix normal(7, 10);
  for (std::uint32_t g = 0; g < 7; ++g) {
    for (std::uint32_t s = 0; s < 10; ++s) tumor.set(g, s);
  }
  const FContext ctx{FParams{}, 10, 10};
  for (const Scheme scheme : all_schemes()) {
    const EvalResult r =
        evaluate_range(tumor, normal, ctx, scheme, 0, scheme_threads(scheme, 7));
    EXPECT_EQ(r.combo_rank, 0u) << scheme_name(scheme);  // {0, 1, ..., h-1}
  }
}

TEST(Schemes, FewerGenesThanHitsIsAnEmptySpace) {
  BitMatrix tumor(4, 16), normal(4, 16);
  const FContext ctx{FParams{}, 16, 16};
  for (const Scheme scheme : {Scheme{6, 5}, Scheme{6, 1}, Scheme{5, 5}}) {
    EXPECT_FALSE(evaluate_range(tumor, normal, ctx, scheme, 0, scheme_threads(scheme, 4)).valid)
        << scheme_name(scheme);
  }
}

TEST(Schemes, MismatchedGeneCountsAreRejected) {
  // A normal matrix with fewer genes would be read past its last row; every
  // build rejects it, not only those with asserts.
  const auto f = make_fixture(15, 4, 3);
  const BitMatrix short_normal(14, 50);
  const Scheme scheme{4, 3};
  EXPECT_THROW((void)evaluate_range(f.data.tumor, short_normal, f.ctx, scheme, 0,
                                    scheme_threads(scheme, 15)),
               std::invalid_argument);
  EXPECT_THROW((void)serial_find_best(f.data.tumor, short_normal, f.ctx, 4),
               std::invalid_argument);
  EXPECT_THROW((void)serial_find_best(f.data.tumor, f.data.normal, f.ctx, 0),
               std::invalid_argument);
}

// --- carried bounds (lazy greedy) ------------------------------------------------

/// `inner` with the Engine's carried bounds withheld: the cold reference a
/// lazy run must match selection for selection.
Evaluator without_carried(Evaluator inner) {
  return [inner = std::move(inner)](const BitMatrix& tumor, const BitMatrix& normal,
                                    const FContext& ctx) {
    FContext cold = ctx;
    cold.carried = nullptr;
    return inner(tumor, normal, cold);
  };
}

void expect_same_greedy(const GreedyResult& a, const GreedyResult& b, const std::string& what) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << what;
  EXPECT_EQ(a.uncovered_tumor, b.uncovered_tumor) << what;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].genes, b.iterations[i].genes) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].f, b.iterations[i].f) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].tp, b.iterations[i].tp) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].tn, b.iterations[i].tn) << what << " iteration " << i;
  }
}

/// The exact largest F numerator over thread λ's combinations of
/// Scheme{h, h-1} (-inf for a thread with none).
double exact_thread_numerator(const BitMatrix& tumor, const BitMatrix& normal,
                              const FContext& ctx, std::uint32_t hits, u64 lambda) {
  std::vector<std::uint32_t> combo = unrank_combination(lambda, hits - 1);
  combo.push_back(0);
  double best = -std::numeric_limits<double>::infinity();
  for (std::uint32_t last = combo[hits - 2] + 1; last < tumor.genes(); ++last) {
    combo.back() = last;
    best = std::max(best, f_numerator(ctx, tumor.intersect_count(combo),
                                      normal.intersect_count(combo)));
  }
  return best;
}

/// Every thread's and block's carried bound is at least its exact numerator
/// on the matrices at hand.
void expect_sound(const CarriedBounds& bounds, const BitMatrix& tumor, const BitMatrix& normal,
                  const FContext& ctx, std::uint32_t hits, const std::string& where) {
  const u64 span = u64{1} << bounds.block_shift();
  for (u64 lambda = 0; lambda < bounds.threads(); ++lambda) {
    const double exact = exact_thread_numerator(tumor, normal, ctx, hits, lambda);
    ASSERT_GE(bounds.thread_bound(lambda), exact) << where << " thread " << lambda;
    ASSERT_GE(bounds.block_bound(lambda / span), exact) << where << " thread " << lambda;
  }
}

TEST(CarriedBounds, WarmRunsMatchColdOnAdversarialFixtures) {
  // Full greedy runs through the kernel evaluator, with the Engine's
  // carried bounds and without, on every adversarial fixture at h = 2..6
  // in both exclusion modes: the same selections, the same combinations
  // covered, and the bounds did skip threads.
  for (std::uint32_t hits = 2; hits <= 6; ++hits) {
    u64 skipped = 0;
    const auto fixtures = adversarial_fixtures(hits);
    for (std::size_t which = 0; which < fixtures.size(); ++which) {
      const Fixture& f = fixtures[which];
      for (const bool splicing : {true, false}) {
        EngineConfig config;
        config.hits = hits;
        config.bit_splicing = splicing;
        KernelCounts warm_counts, cold_counts;
        const GreedyResult warm = run_greedy(f.data.tumor, f.data.normal, config,
                                             make_kernel_evaluator(hits, &warm_counts));
        const GreedyResult cold =
            run_greedy(f.data.tumor, f.data.normal, config,
                       without_carried(make_kernel_evaluator(hits, &cold_counts)));
        const std::string what = "h=" + std::to_string(hits) + " fixture " +
                                 std::to_string(which) + (splicing ? " splicing" : " zero-out");
        expect_same_greedy(warm, cold, what);
        EXPECT_EQ(warm_counts.combinations, cold_counts.combinations) << what;
        EXPECT_EQ(cold_counts.threads_skipped, 0u) << what;
        skipped += warm_counts.threads_skipped;
      }
    }
    EXPECT_GT(skipped, 0u) << "h=" << hits << ": no carried bound ever skipped a thread";
  }
}

TEST(CarriedBounds, BoundsNeverUnderstateAThread) {
  // Before each evaluation the bounds carried from the last one, and after
  // it the bounds it recorded, are at least every thread's exact F
  // numerator on the current matrices: the soundness lazy greedy rests on.
  for (const std::uint32_t hits : {2u, 3u, 4u}) {
    const auto fixtures = adversarial_fixtures(hits);
    for (std::size_t which = 0; which < fixtures.size(); ++which) {
      const Fixture& f = fixtures[which];
      for (const bool splicing : {true, false}) {
        const std::string what = "h=" + std::to_string(hits) + " fixture " +
                                 std::to_string(which) + (splicing ? " splicing" : " zero-out");
        EngineConfig config;
        config.hits = hits;
        config.bit_splicing = splicing;
        const Evaluator kernel = make_kernel_evaluator(hits);
        std::size_t iteration = 0;
        const Evaluator checked = [&](const BitMatrix& tumor, const BitMatrix& normal,
                                      const FContext& ctx) {
          const std::string at = what + " iteration " + std::to_string(iteration++);
          if (ctx.carried->warm()) expect_sound(*ctx.carried, tumor, normal, ctx, hits, at);
          const EvalResult best = kernel(tumor, normal, ctx);
          expect_sound(*ctx.carried, tumor, normal, ctx, hits, at + " recorded");
          return best;
        };
        (void)run_greedy(f.data.tumor, f.data.normal, config, checked);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CarriedBounds, RescansLowerTheBounds) {
  // Bounds recorded on a dense matrix are loose once most tumor samples are
  // zeroed. The first evaluation there rescans what they do not rule out
  // and lowers its bounds, so a repeat skips more threads.
  const auto f = make_fixture(small_genes(4), 4, 4004, 2);
  const Scheme scheme{4, 3};
  const u64 threads = scheme_threads(scheme, f.data.genes());
  CarriedBounds bounds;
  ASSERT_TRUE(bounds.begin(f.data.tumor, f.ctx, 4));
  (void)evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, 0, threads,
                       greedy_floor(f.data.tumor, f.data.normal, f.ctx, 4), nullptr, &bounds);
  bounds.finish();

  BitMatrix sparse = f.data.tumor;
  for (std::uint32_t g = 0; g < sparse.genes(); ++g) {
    for (std::uint32_t s = 12; s < sparse.samples(); ++s) sparse.clear(g, s);
  }
  FContext ctx = f.ctx;
  ctx.tumor_total = 12;
  const double floor = greedy_floor(sparse, f.data.normal, ctx, 4);
  const EvalResult exact = serial_find_best(sparse, f.data.normal, ctx, 4);
  KernelCounts first, repeat;
  ASSERT_TRUE(bounds.begin(sparse, ctx, 4));
  expect_same(evaluate_range(sparse, f.data.normal, ctx, scheme, 0, threads, floor, &first,
                             &bounds),
              exact, "first");
  ASSERT_TRUE(bounds.begin(sparse, ctx, 4));
  expect_same(evaluate_range(sparse, f.data.normal, ctx, scheme, 0, threads, floor, &repeat,
                             &bounds),
              exact, "repeat");
  EXPECT_GT(repeat.threads_skipped, first.threads_skipped);
}

TEST(CarriedBounds, NegativeAlphaStaysColdAndCutsNothing) {
  // With α < 0 the numerator rises as TP falls, so nothing carries over:
  // the bounds never apply and the run is the cold run, count for count.
  for (const std::uint32_t hits : {2u, 3u, 4u}) {
    for (const Fixture& f : adversarial_fixtures(hits)) {
      EngineConfig config;
      config.hits = hits;
      config.f_params.alpha = -0.5;
      KernelCounts warm_counts, cold_counts;
      const GreedyResult warm = run_greedy(f.data.tumor, f.data.normal, config,
                                           make_kernel_evaluator(hits, &warm_counts));
      const GreedyResult cold =
          run_greedy(f.data.tumor, f.data.normal, config,
                     without_carried(make_kernel_evaluator(hits, &cold_counts)));
      expect_same_greedy(warm, cold, "alpha = -0.5, h=" + std::to_string(hits));
      EXPECT_EQ(warm_counts.threads_skipped, 0u);
      EXPECT_EQ(warm_counts.pruned, cold_counts.pruned);
      EXPECT_EQ(warm_counts.leaf_cut, cold_counts.leaf_cut);
    }
  }
  const auto f = make_fixture(16, 4, 31);
  CarriedBounds bounds;
  for (const double alpha : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    FContext ctx = f.ctx;
    ctx.params.alpha = alpha;
    EXPECT_FALSE(bounds.begin(f.data.tumor, ctx, 4)) << alpha;
  }
  EXPECT_FALSE(bounds.begin(f.data.tumor, f.ctx, 1));
  EXPECT_TRUE(bounds.begin(f.data.tumor, f.ctx, 4));
  EXPECT_FALSE(bounds.warm());
}

TEST(CarriedBounds, BlockOnlyBoundsStayExact) {
  // Capped at 4 blocks, every space here runs on blocks of more than
  // kBlockThreads threads, over one range (the kernel evaluator's shape)
  // and over block-aligned chunks of one and of three blocks, whose last
  // chunk ends at the space's end. A range that splits a block is rejected.
  for (const std::uint32_t hits : {3u, 4u, 5u}) {
    const auto fixtures = adversarial_fixtures(hits);
    for (std::size_t which = 0; which < fixtures.size(); ++which) {
      const Fixture& f = fixtures[which];
      const Scheme scheme{hits, hits - 1};
      EngineConfig config;
      config.hits = hits;
      const GreedyResult serial =
          run_greedy(f.data.tumor, f.data.normal, config, make_serial_evaluator(hits));
      for (const u64 blocks : {u64{0}, u64{1}, u64{3}}) {
        CarriedBounds bounds(4);
        const Evaluator lazy = [&](const BitMatrix& tumor, const BitMatrix& normal,
                                   const FContext& ctx) {
          EXPECT_TRUE(bounds.begin(tumor, ctx, hits));
          const u64 span = u64{1} << bounds.block_shift();
          EXPECT_GT(span, CarriedBounds::kBlockThreads);
          EXPECT_LE(bounds.threads(), 4 * span);
          const u64 threads = scheme_threads(scheme, tumor.genes());
          const u64 chunk = blocks == 0 ? threads : blocks * span;
          const double floor = greedy_floor(tumor, normal, ctx, hits);
          EXPECT_THROW((void)evaluate_range(tumor, normal, ctx, scheme, 0, span - 1, floor,
                                            nullptr, &bounds),
                       std::invalid_argument);
          EXPECT_THROW((void)evaluate_range(tumor, normal, ctx, scheme, 1, span, floor, nullptr,
                                            &bounds),
                       std::invalid_argument);
          EvalResult best;
          KernelCounts counts;
          for (u64 a = 0; a < threads; a += chunk) {
            const u64 b = std::min(threads, a + chunk);
            best = merge_results(
                best, evaluate_range(tumor, normal, ctx, scheme, a, b, floor, &counts, &bounds));
          }
          bounds.finish();
          EXPECT_EQ(counts.combinations, binomial(tumor.genes(), hits));
          return best;
        };
        const GreedyResult result = run_greedy(f.data.tumor, f.data.normal, config, lazy);
        expect_same_greedy(result, serial,
                           "h=" + std::to_string(hits) + " fixture " + std::to_string(which) +
                               " blocks per chunk " + std::to_string(blocks));
      }
    }
  }
}

TEST(CarriedBounds, NoisySolvePastItsSignalSelectsAsTheSerialScan) {
  // A cut of the noisy instance: background 0.08 and a driver detect rate of
  // 0.6 use up the planted combinations within a few picks, so most warm
  // walks cut threads on their block's bound after the incumbent rises. The
  // kernel evaluator and 1- and 3-worker sweeps select what the serial scan
  // selects, iteration by iteration.
  SyntheticSpec spec;
  spec.genes = 36;
  spec.tumor_samples = 120;
  spec.normal_samples = 80;
  spec.hits = 4;
  spec.num_combinations = 6;
  spec.background_rate = 0.08;
  spec.driver_detect_rate = 0.6;
  spec.seed = 5;
  const Dataset data = generate_dataset(spec);
  EngineConfig config;
  config.hits = 4;
  const GreedyResult serial =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(4));
  ASSERT_GT(serial.iterations.size(), 20u);
  KernelCounts counts;
  const GreedyResult kernel =
      run_greedy(data.tumor, data.normal, config, make_kernel_evaluator(4, &counts));
  expect_same_greedy(kernel, serial, "kernel evaluator");
  EXPECT_GT(counts.threads_skipped, 0u);
  for (const std::uint32_t threads : {1u, 3u}) {
    HostSweepOptions sweep;
    sweep.hits = 4;
    sweep.threads = threads;
    const GreedyResult swept =
        run_greedy(data.tumor, data.normal, config, make_host_sweep_evaluator(sweep));
    expect_same_greedy(swept, serial, std::to_string(threads) + "-worker sweep");
  }
}

TEST(CarriedBounds, UnreadiedBoundsAreRejected) {
  const auto f = make_fixture(15, 4, 3);
  CarriedBounds bounds;
  EXPECT_THROW((void)evaluate_range(f.data.tumor, f.data.normal, f.ctx, {4, 3}, 0, 1, kNoFloor,
                                    nullptr, &bounds),
               std::invalid_argument);
  ASSERT_TRUE(bounds.begin(f.data.tumor, f.ctx, 4));
  EXPECT_THROW((void)evaluate_range(f.data.tumor, f.data.normal, f.ctx, {4, 2}, 0, 1, kNoFloor,
                                    nullptr, &bounds),
               std::invalid_argument);
}

TEST(CarriedBounds, RangeWorkMatchesThreadWork) {
  for (const Scheme scheme : all_schemes()) {
    const std::uint32_t genes = small_genes(scheme.hits);
    const u64 threads = scheme_threads(scheme, genes);
    for (const auto& [a, b] : ragged_ranges(threads, scheme.hits * 7 + scheme.flat)) {
      u64 work = 0;
      for (u64 lambda = a; lambda < b; ++lambda) {
        work += scheme_thread_work(scheme, genes, lambda);
      }
      EXPECT_EQ(scheme_range_work(scheme, genes, a, b), work)
          << scheme_name(scheme) << " [" << a << "," << b << ")";
    }
  }
  EXPECT_THROW((void)scheme_range_work({4, 3}, 15, 0, scheme_threads({4, 3}, 15) + 1),
               std::invalid_argument);
}

// --- workload / scheduling --------------------------------------------------------

TEST(SchemeWorkload, EquiAreaBalancesFiveHit) {
  const auto model = WorkloadModel::for_scheme({5, 4}, 200);
  const auto ea = equiarea_schedule(model, 60);
  const auto stats = schedule_imbalance(model, ea);
  EXPECT_LT(stats.imbalance, 1.01);
  const auto fast = equiarea_schedule(model, 24);
  const auto naive = equiarea_schedule_naive(model, 24);
  EXPECT_EQ(fast, naive);
}

// --- engine / cluster integration -------------------------------------------------

TEST(KernelEvaluator, MatchesSerialForAllHitCounts) {
  for (std::uint32_t hits = 2; hits <= 6; ++hits) {
    const auto f = make_fixture(small_genes(hits), hits, 900 + hits, 2);
    const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, hits);
    const EvalResult kernel = make_kernel_evaluator(hits)(f.data.tumor, f.data.normal, f.ctx);
    expect_same(kernel, serial, "hits=" + std::to_string(hits));
  }
}

TEST(KernelEvaluator, EqualsTheOneWorkerHostSweep) {
  // One worker sweeps the whole space as one chunk, which is the kernel
  // evaluator's one range: through full greedy runs on every adversarial
  // fixture at h = 2..5, warm and with the carried bounds withheld, every
  // iteration gives the same result and the same KernelCounts.
  struct Step {
    EvalResult best;
    KernelCounts counts;
  };
  for (std::uint32_t hits = 2; hits <= 5; ++hits) {
    const auto fixtures = adversarial_fixtures(hits);
    for (std::size_t which = 0; which < fixtures.size(); ++which) {
      const Fixture& f = fixtures[which];
      for (const bool warm : {true, false}) {
        const std::string what = "h=" + std::to_string(hits) + " fixture " +
                                 std::to_string(which) + (warm ? " warm" : " cold");
        EngineConfig config;
        config.hits = hits;
        // Each iteration's result and counts through `evaluate`.
        const auto steps = [&](auto evaluate) {
          std::vector<Step> out;
          (void)run_greedy(f.data.tumor, f.data.normal, config,
                           [&](const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx) {
                             FContext at = ctx;
                             if (!warm) at.carried = nullptr;
                             Step step;
                             step.best = evaluate(tumor, normal, at, &step.counts);
                             out.push_back(step);
                             return step.best;
                           });
          return out;
        };
        const std::vector<Step> kernel = steps([&](const BitMatrix& tumor, const BitMatrix& normal,
                                                   const FContext& ctx, KernelCounts* counts) {
          return make_kernel_evaluator(hits, counts)(tumor, normal, ctx);
        });
        HostSweepOptions options;
        options.hits = hits;
        options.threads = 1;
        const std::vector<Step> swept = steps([&](const BitMatrix& tumor, const BitMatrix& normal,
                                                  const FContext& ctx, KernelCounts* counts) {
          HostSweepTelemetry telemetry;
          const EvalResult best = host_sweep_find_best(tumor, normal, ctx, options, &telemetry);
          EXPECT_EQ(telemetry.chunks, 1u) << what;
          *counts = telemetry.counts;
          return best;
        });
        ASSERT_EQ(swept.size(), kernel.size()) << what;
        for (std::size_t i = 0; i < kernel.size(); ++i) {
          const std::string at = what + " iteration " + std::to_string(i);
          expect_same(swept[i].best, kernel[i].best, at);
          EXPECT_EQ(swept[i].counts.combinations, kernel[i].counts.combinations) << at;
          EXPECT_EQ(swept[i].counts.pruned, kernel[i].counts.pruned) << at;
          EXPECT_EQ(swept[i].counts.leaf_cut, kernel[i].counts.leaf_cut) << at;
          EXPECT_EQ(swept[i].counts.threads_skipped, kernel[i].counts.threads_skipped) << at;
        }
      }
    }
  }
}

TEST(KernelEvaluator, FallsBackToSerialBelowTwoHits) {
  const auto f = make_fixture(14, 3, 905);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 1);
  const EvalResult fallback = make_kernel_evaluator(1)(f.data.tumor, f.data.normal, f.ctx);
  expect_same(fallback, serial, "hits=1");
}

TEST(SixHit, GreedyThroughKernelAndSweepMatchesSerial) {
  // h = 6 needs no kernel of its own: the kernel evaluator and the threaded
  // host sweep both run Scheme{6, 5} and must select what the serial scan
  // selects.
  const auto f = make_fixture(14, 6, 6006, 2);
  EngineConfig config;
  config.hits = 6;
  const GreedyResult serial =
      run_greedy(f.data.tumor, f.data.normal, config, make_serial_evaluator(6));
  ASSERT_FALSE(serial.iterations.empty());
  const GreedyResult kernel =
      run_greedy(f.data.tumor, f.data.normal, config, make_kernel_evaluator(6));
  EXPECT_EQ(kernel.combinations(), serial.combinations());
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    HostSweepOptions sweep;
    sweep.hits = 6;
    sweep.threads = threads;
    const GreedyResult swept =
        run_greedy(f.data.tumor, f.data.normal, config, make_host_sweep_evaluator(sweep));
    EXPECT_EQ(swept.combinations(), serial.combinations()) << "threads=" << threads;
    EXPECT_EQ(swept.uncovered_tumor, serial.uncovered_tumor) << "threads=" << threads;
  }
}

TEST(ClusterHits, DistributedTwoHitMatchesSerialEngine) {
  const auto f = make_fixture(30, 2, 910);
  EngineConfig engine;
  engine.hits = 2;
  const GreedyResult serial =
      run_greedy(f.data.tumor, f.data.normal, engine, make_serial_evaluator(2));
  SummitConfig config;
  config.nodes = 3;
  DistributedOptions options;
  options.hits = 2;
  const auto result = ClusterRunner(config).run(f.data, options);
  EXPECT_EQ(result.greedy.combinations(), serial.combinations());
}

TEST(ClusterHits, DistributedFiveHitMatchesSerialEngine) {
  const auto f = make_fixture(14, 5, 911, 2);
  EngineConfig engine;
  engine.hits = 5;
  const GreedyResult serial =
      run_greedy(f.data.tumor, f.data.normal, engine, make_serial_evaluator(5));
  SummitConfig config;
  config.nodes = 2;
  DistributedOptions options;
  options.hits = 5;
  const auto result = ClusterRunner(config).run(f.data, options);
  EXPECT_EQ(result.greedy.combinations(), serial.combinations());
}

TEST(ClusterHits, DistributedSixHitWithTwoInnerLoopsMatchesSerialEngine) {
  const auto f = make_fixture(13, 6, 912, 2);
  EngineConfig engine;
  engine.hits = 6;
  const GreedyResult serial =
      run_greedy(f.data.tumor, f.data.normal, engine, make_serial_evaluator(6));
  SummitConfig config;
  config.nodes = 2;
  DistributedOptions options;
  options.hits = 6;
  options.inner = 2;
  const auto result = ClusterRunner(config).run(f.data, options);
  EXPECT_EQ(result.greedy.combinations(), serial.combinations());
}

TEST(ClusterHits, FiveHitAtScaleIsModellable) {
  // §V: each extra hit costs ~G/h more work; 5-hit at paper scale must be
  // priceable by the analytic model without enumeration.
  SummitConfig config;
  config.nodes = 1000;
  ModelInputs inputs;
  inputs.hits = 5;
  inputs.genes = 15000;  // C(15000,5) ~ 6.3e18 still fits u64
  inputs.first_iteration_only = true;
  const auto run = model_cluster_run(config, inputs);
  EXPECT_GT(run.total_time, 0.0);
  // 4-hit at the same G for comparison: 5-hit is ~(G-4)/5 ~ 3000x slower.
  ModelInputs four = inputs;
  four.hits = 4;
  const auto run4 = model_cluster_run(config, four);
  EXPECT_GT(run.total_time / run4.total_time, 500.0);
}

}  // namespace
}  // namespace multihit
