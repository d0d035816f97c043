#include "core/schemes.hpp"

#include <gtest/gtest.h>

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
                     std::uint32_t planted = 3) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 70;
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
/// tumor rows empty (their prefixes bound at TP = 0 and are cut), and the
/// at-floor fixture.
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
  return fixtures;
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

TEST_P(AllSchemes, CountedCombinationsMatchSchemeStats) {
  // The kernel's `combinations` is a real count of what it scored plus what
  // it cut; it must agree with the closed form (and with the reference's
  // count) over ragged ranges, or the host sweep's "visits each combination
  // once" check means nothing. The closed form's traffic fields are pinned
  // by tests/test_scheme_stats.cpp. The hot-path call contract rides along:
  // every scored combination costs exactly one dispatched two-row
  // and_popcount per matrix, and a pruned one costs none.
  const Scheme scheme = GetParam();
  const auto f = make_fixture(small_genes(scheme.hits), scheme.hits, 77, 2);
  const std::uint32_t wt = f.data.tumor.words_per_row();
  const std::uint32_t wn = f.data.normal.words_per_row();
  const u64 total = scheme_threads(scheme, f.data.genes());
  for (const auto& [a, b] : ragged_ranges(total, 5 + scheme.flat)) {
    KernelCounts counted;
    const bool was_counting = set_call_counting(true);
    const BitopsCallCounts calls_before = thread_bitops_calls();
    evaluate_range(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, kNoFloor, &counted);
    const BitopsCallCounts calls = thread_bitops_calls() - calls_before;
    set_call_counting(was_counting);
    EXPECT_EQ(calls.and2, 2 * (counted.combinations - counted.pruned))
        << "[" << a << "," << b << ")";
    const KernelStats modeled = scheme_stats(scheme, f.data.genes(), a, b, {}, wt, wn);
    u64 brute = 0;
    (void)brute_force_range(f, scheme, a, b, &brute);
    EXPECT_EQ(counted.combinations, modeled.combinations) << "[" << a << "," << b << ")";
    EXPECT_EQ(counted.combinations, brute) << "[" << a << "," << b << ")";
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
  HostSweepOptions sweep;
  sweep.hits = 6;
  sweep.threads = 3;
  sweep.chunk = 97;
  const GreedyResult swept =
      run_greedy(f.data.tumor, f.data.normal, config, make_host_sweep_evaluator(sweep));
  EXPECT_EQ(kernel.combinations(), serial.combinations());
  EXPECT_EQ(swept.combinations(), serial.combinations());
  EXPECT_EQ(swept.uncovered_tumor, serial.uncovered_tumor);
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
