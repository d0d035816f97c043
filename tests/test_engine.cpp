#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/schemes.hpp"
#include "data/generator.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

Dataset planted_dataset(std::uint32_t hits, std::uint32_t combos, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 40;
  spec.tumor_samples = 80;
  spec.normal_samples = 60;
  spec.hits = hits;
  spec.num_combinations = combos;
  spec.background_rate = 0.01;
  spec.seed = seed;
  return generate_dataset(spec);
}

TEST(Engine, RecoversPlantedTwoHitCombinations) {
  const Dataset data = planted_dataset(2, 3, 11);
  EngineConfig config;
  config.hits = 2;
  const GreedyResult result =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(2));
  EXPECT_EQ(result.uncovered_tumor, 0u);
  // Every planted combination must appear among the selections.
  const auto selected = result.combinations();
  for (const auto& truth : data.planted) {
    EXPECT_NE(std::find(selected.begin(), selected.end(), truth), selected.end())
        << "planted combination not recovered";
  }
}

TEST(Engine, RecoversPlantedThreeHitCombinations) {
  const Dataset data = planted_dataset(3, 3, 29);
  EngineConfig config;
  config.hits = 3;
  const GreedyResult result =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(3));
  EXPECT_EQ(result.uncovered_tumor, 0u);
  const auto selected = result.combinations();
  for (const auto& truth : data.planted) {
    EXPECT_NE(std::find(selected.begin(), selected.end(), truth), selected.end());
  }
}

TEST(Engine, CoverageIsMonotonic) {
  const Dataset data = planted_dataset(3, 4, 31);
  EngineConfig config;
  config.hits = 3;
  const GreedyResult result =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(3));
  std::uint32_t previous = data.tumor_samples();
  for (const auto& it : result.iterations) {
    EXPECT_EQ(it.tumor_remaining_before, previous);
    EXPECT_LT(it.tumor_remaining_after, it.tumor_remaining_before);
    EXPECT_EQ(it.tumor_remaining_before - it.tumor_remaining_after, it.tp);
    EXPECT_GT(it.tp, 0u);
    previous = it.tumor_remaining_after;
  }
}

TEST(Engine, GreedyFValuesAreRecorded) {
  const Dataset data = planted_dataset(2, 2, 41);
  EngineConfig config;
  config.hits = 2;
  const GreedyResult result =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(2));
  for (const auto& it : result.iterations) {
    EXPECT_GT(it.f, 0.0);
    EXPECT_LE(it.f, 1.0);
    EXPECT_EQ(it.genes.size(), 2u);
    EXPECT_TRUE(std::is_sorted(it.genes.begin(), it.genes.end()));
  }
}

TEST(Engine, SpliceAndZeroOutAreResultIdentical) {
  // BitSplicing is a performance optimization; it must not change which
  // combinations the greedy picks.
  const Dataset data = planted_dataset(3, 3, 53);
  EngineConfig splice;
  splice.hits = 3;
  splice.bit_splicing = true;
  EngineConfig zero = splice;
  zero.bit_splicing = false;
  const GreedyResult a = run_greedy(data.tumor, data.normal, splice, make_serial_evaluator(3));
  const GreedyResult b = run_greedy(data.tumor, data.normal, zero, make_serial_evaluator(3));
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].genes, b.iterations[i].genes);
    EXPECT_EQ(a.iterations[i].tp, b.iterations[i].tp);
  }
}

TEST(Engine, ParallelEvaluatorMatchesSerialAcrossIterations) {
  // Run the whole greedy loop with the 3x1 kernel as evaluator and compare
  // the full selection sequence to the serial engine.
  const Dataset data = planted_dataset(4, 3, 67);
  EngineConfig config;
  config.hits = 4;
  const Evaluator kernel_eval = [](const BitMatrix& tumor, const BitMatrix& normal,
                                   const FContext& ctx) {
    return evaluate_range(tumor, normal, ctx, Scheme{4, 3}, 0,
                          scheme_threads(Scheme{4, 3}, tumor.genes()));
  };
  const GreedyResult serial =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(4));
  const GreedyResult parallel = run_greedy(data.tumor, data.normal, config, kernel_eval);
  ASSERT_EQ(serial.iterations.size(), parallel.iterations.size());
  for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
    EXPECT_EQ(serial.iterations[i].genes, parallel.iterations[i].genes);
  }
}

TEST(Engine, MaxIterationsCapsSelections) {
  const Dataset data = planted_dataset(2, 4, 71);
  EngineConfig config;
  config.hits = 2;
  config.max_iterations = 2;
  const GreedyResult result =
      run_greedy(data.tumor, data.normal, config, make_serial_evaluator(2));
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_GT(result.uncovered_tumor, 0u);
}

TEST(Engine, StopsWhenNoCombinationCovers) {
  // Tumor samples with no mutations at all can never be covered; the engine
  // must stop rather than loop.
  BitMatrix tumor(5, 4);  // all-zero tumor matrix
  BitMatrix normal(5, 4);
  EngineConfig config;
  config.hits = 2;
  const GreedyResult result = run_greedy(tumor, normal, config, make_serial_evaluator(2));
  EXPECT_TRUE(result.iterations.empty());
  EXPECT_EQ(result.uncovered_tumor, 4u);
}

TEST(Engine, EmptyTumorMatrixIsNoop) {
  BitMatrix tumor(5, 0);
  BitMatrix normal(5, 3);
  EngineConfig config;
  config.hits = 2;
  const GreedyResult result = run_greedy(tumor, normal, config, make_serial_evaluator(2));
  EXPECT_TRUE(result.iterations.empty());
  EXPECT_EQ(result.uncovered_tumor, 0u);
}

TEST(Engine, RejectsMismatchedGeneCounts) {
  BitMatrix tumor(5, 4);
  BitMatrix normal(6, 4);
  EngineConfig config;
  EXPECT_THROW(run_greedy(tumor, normal, config, make_serial_evaluator(4)),
               std::invalid_argument);
}

// Exhaustive-optimal comparison: BFS over coverage bitmask states gives the
// true minimum cover size; the greedy's (weighted) cover must stay within
// the classic H(n) approximation envelope on small instances.
TEST(Engine, GreedyStaysNearOptimalCover) {
  Rng rng(271828);
  for (int trial = 0; trial < 10; ++trial) {
    constexpr std::uint32_t kGenes = 12;
    constexpr std::uint32_t kTumor = 10;
    BitMatrix tumor(kGenes, kTumor);
    // Normal matrix left empty: every combination then has identical TN, so
    // the F-greedy degenerates to the classic max-coverage greedy and the
    // H(n) bound applies. (With normal-side noise, a zero-coverage
    // combination can legitimately out-score a covering one through its TN
    // term — the engine stops there by design.)
    BitMatrix normal(kGenes, 8);
    for (std::uint32_t g = 0; g < kGenes; ++g) {
      for (std::uint32_t s = 0; s < kTumor; ++s) {
        if (rng.bernoulli(0.45)) tumor.set(g, s);
      }
    }

    // Coverage mask per 2-hit combination.
    std::vector<std::uint32_t> masks;
    for (std::uint32_t i = 0; i < kGenes; ++i) {
      for (std::uint32_t j = i + 1; j < kGenes; ++j) {
        std::uint32_t mask = 0;
        for (std::uint32_t s = 0; s < kTumor; ++s) {
          if (tumor.get(i, s) && tumor.get(j, s)) mask |= 1u << s;
        }
        if (mask) masks.push_back(mask);
      }
    }
    std::uint32_t coverable = 0;
    for (std::uint32_t m : masks) coverable |= m;

    // BFS over states for the optimal cover of the coverable set.
    std::vector<int> dist(1u << kTumor, -1);
    dist[0] = 0;
    std::vector<std::uint32_t> frontier{0};
    int optimal = -1;
    while (!frontier.empty() && optimal < 0) {
      std::vector<std::uint32_t> next;
      for (std::uint32_t state : frontier) {
        for (std::uint32_t m : masks) {
          const std::uint32_t successor = state | m;
          if (dist[successor] < 0) {
            dist[successor] = dist[state] + 1;
            if (successor == coverable) {
              optimal = dist[successor];
              break;
            }
            next.push_back(successor);
          }
        }
        if (optimal >= 0) break;
      }
      frontier = std::move(next);
    }
    if (coverable == 0) continue;
    ASSERT_GT(optimal, 0);

    EngineConfig config;
    config.hits = 2;
    const GreedyResult greedy = run_greedy(tumor, normal, config, make_serial_evaluator(2));
    // Everything coverable gets covered.
    EXPECT_EQ(greedy.uncovered_tumor,
              kTumor - static_cast<std::uint32_t>(std::popcount(coverable)));
    // Classic greedy set-cover bound (+1 slack for the F-weighting).
    const double bound = optimal * (1.0 + std::log(static_cast<double>(kTumor))) + 1.0;
    EXPECT_LE(static_cast<double>(greedy.iterations.size()), bound) << "trial " << trial;
  }
}

TEST(Engine, RejectsBadHitCount) {
  BitMatrix tumor(5, 4);
  BitMatrix normal(5, 4);
  EngineConfig config;
  config.hits = 0;
  EXPECT_THROW(run_greedy(tumor, normal, config, make_serial_evaluator(0)),
               std::invalid_argument);
  config.hits = 9;
  EXPECT_THROW(run_greedy(tumor, normal, config, make_serial_evaluator(9)),
               std::invalid_argument);
}

}  // namespace
}  // namespace multihit
