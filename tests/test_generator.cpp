#include "data/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitmat/bitmatrix.hpp"
#include "data/dataset.hpp"
#include "data/registry.hpp"
#include "serve/cache.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

SyntheticSpec small_spec() {
  SyntheticSpec spec;
  spec.genes = 60;
  spec.tumor_samples = 40;
  spec.normal_samples = 30;
  spec.hits = 3;
  spec.num_combinations = 4;
  spec.background_rate = 0.02;
  spec.seed = 7;
  return spec;
}

TEST(Generator, DimensionsMatchSpec) {
  const Dataset data = generate_dataset(small_spec());
  EXPECT_EQ(data.genes(), 60u);
  EXPECT_EQ(data.tumor_samples(), 40u);
  EXPECT_EQ(data.normal_samples(), 30u);
  EXPECT_EQ(data.planted.size(), 4u);
}

TEST(Generator, DeterministicForSameSeed) {
  const Dataset a = generate_dataset(small_spec());
  const Dataset b = generate_dataset(small_spec());
  EXPECT_EQ(a.tumor, b.tumor);
  EXPECT_EQ(a.normal, b.normal);
  EXPECT_EQ(a.planted, b.planted);
}

TEST(Generator, SeedChangesData) {
  auto spec = small_spec();
  const Dataset a = generate_dataset(spec);
  spec.seed = 8;
  const Dataset b = generate_dataset(spec);
  EXPECT_NE(a.tumor, b.tumor);
}

TEST(Generator, PlantedCombinationsAreDisjointAndSorted) {
  const Dataset data = generate_dataset(small_spec());
  std::set<std::uint32_t> seen;
  for (const auto& combo : data.planted) {
    ASSERT_EQ(combo.size(), 3u);
    EXPECT_TRUE(std::is_sorted(combo.begin(), combo.end()));
    for (std::uint32_t g : combo) {
      EXPECT_LT(g, 60u);
      EXPECT_TRUE(seen.insert(g).second) << "gene " << g << " reused across combinations";
    }
  }
}

TEST(Generator, EveryTumorSampleCoveredAtFullDetectRate) {
  auto spec = small_spec();
  spec.driver_detect_rate = 1.0;
  const Dataset data = generate_dataset(spec);
  for (std::uint32_t s = 0; s < data.tumor_samples(); ++s) {
    bool covered = false;
    for (const auto& combo : data.planted) {
      bool all = true;
      for (std::uint32_t g : combo) all = all && data.tumor.get(g, s);
      covered = covered || all;
    }
    EXPECT_TRUE(covered) << "tumor sample " << s << " carries no planted combination";
  }
}

TEST(Generator, NormalSamplesRarelyCarryPlantedCombos) {
  auto spec = small_spec();
  spec.background_rate = 0.01;
  const Dataset data = generate_dataset(spec);
  std::uint32_t carriers = 0;
  for (std::uint32_t s = 0; s < data.normal_samples(); ++s) {
    for (const auto& combo : data.planted) {
      bool all = true;
      for (std::uint32_t g : combo) all = all && data.normal.get(g, s);
      if (all) {
        ++carriers;
        break;
      }
    }
  }
  // P(all 3 background-mutated) = 1e-6 per combo; zero expected.
  EXPECT_EQ(carriers, 0u);
}

TEST(Generator, BackgroundRateIsRespected) {
  auto spec = small_spec();
  spec.genes = 200;
  spec.normal_samples = 200;
  spec.num_combinations = 1;
  spec.background_rate = 0.05;
  const Dataset data = generate_dataset(spec);
  const double density = static_cast<double>(data.normal.total_set_bits()) /
                         (static_cast<double>(spec.genes) * spec.normal_samples);
  EXPECT_NEAR(density, 0.05, 0.01);
}

TEST(Generator, RejectsImpossibleSpecs) {
  auto spec = small_spec();
  spec.genes = 10;  // 4 combos x 3 hits = 12 > 10 genes
  EXPECT_THROW(generate_dataset(spec), std::invalid_argument);
  spec = small_spec();
  spec.hits = 0;
  EXPECT_THROW(generate_dataset(spec), std::invalid_argument);

  // A rate that is NaN or outside [0, 1] is named with its value.
  const double nan = std::nan("");
  const struct {
    double SyntheticSpec::*rate;
    double value;
    const char* named;
  } rates[] = {
      {&SyntheticSpec::driver_detect_rate, -0.1, "driver_detect_rate -0.1"},
      {&SyntheticSpec::driver_detect_rate, 1.5, "driver_detect_rate 1.5"},
      {&SyntheticSpec::normal_contamination, nan, "normal_contamination nan"},
      {&SyntheticSpec::normal_contamination, 2.0, "normal_contamination 2"},
      {&SyntheticSpec::background_rate, -0.5, "background_rate -0.5"},
      {&SyntheticSpec::tumor_excess_rate, 1.01, "tumor_excess_rate 1.01"},
  };
  for (const auto& r : rates) {
    spec = small_spec();
    spec.*r.rate = r.value;
    try {
      generate_dataset(spec);
      ADD_FAILURE() << "accepted " << r.named;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(r.named), std::string::npos) << e.what();
    }
  }
}

TEST(Generator, RejectsOversizedSpecsBeforeAllocating) {
  // Each spec also breaks the planted-combination rule (hits x combinations
  // > genes), so were a size check missing the call would still throw,
  // cheaply, but name that rule instead of the bound.
  const auto oversized = [](std::uint32_t genes, std::uint32_t tumor, std::uint32_t normal) {
    SyntheticSpec spec;
    spec.genes = genes;
    spec.tumor_samples = tumor;
    spec.normal_samples = normal;
    spec.hits = 2;
    spec.num_combinations = genes;
    return spec;
  };
  const std::uint32_t wide = 64 * 64 + 1;  // 65 words: 2^22 rows exceed 2^28 words
  const struct {
    SyntheticSpec spec;
    std::vector<std::string> named;
  } cases[] = {
      {oversized(kMaxGenes + 1, 1, 1), {"genes", "kMaxGenes"}},
      {oversized(1, kMaxSamples + 1, 1), {"tumor_samples", "kMaxSamples"}},
      {oversized(1, 1, kMaxSamples + 1), {"normal_samples", "kMaxSamples"}},
      {oversized(1u << 22, wide, 1), {"tumor_samples", "kMaxMatrixWords"}},
      {oversized(1u << 22, 1, wide), {"normal_samples", "kMaxMatrixWords"}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.named.back());
    try {
      generate_dataset(c.spec);
      ADD_FAILURE() << "oversized spec accepted";
    } catch (const std::invalid_argument& e) {
      for (const std::string& word : c.named) {
        EXPECT_NE(std::string(e.what()).find(word), std::string::npos) << e.what();
      }
    }
  }
}

TEST(Generator, RowFillerMatchesPerBitBernoulli) {
  // or_bernoulli_row against the per-bit loop it replaced, on one seed: the
  // same rows, the same draws consumed (the next raw draw agrees), and the
  // bits set before it ran kept.
  const double nan = std::nan("");
  for (const std::uint32_t samples : {0u, 1u, 63u, 64u, 65u, 1000u, 1600u}) {
    for (const double p : {0.0, 0.012, 0.3, 0.97, 1.0, -0.5, 1.5, nan}) {
      SCOPED_TRACE(std::to_string(samples) + " samples, p " + std::to_string(p));
      BitMatrix filled(3, samples);
      BitMatrix reference(3, samples);
      for (std::uint32_t s = 0; s < samples; s += 7) {
        filled.set(1, s);
        reference.set(1, s);
      }
      Rng a(samples + 101), b(samples + 101);
      for (std::uint32_t g = 0; g < 3; ++g) {
        or_bernoulli_row(a, p, filled, g);
        for (std::uint32_t s = 0; s < samples; ++s) {
          if (b.bernoulli(p)) reference.set(g, s);
        }
      }
      EXPECT_EQ(filled, reference);
      EXPECT_EQ(a(), b());
    }
  }
}

TEST(SplitDataset, PartitionSizes) {
  const Dataset data = generate_dataset(small_spec());
  const auto split = split_dataset(data, 0.75, 99);
  EXPECT_EQ(split.train.tumor_samples(), 30u);
  EXPECT_EQ(split.test.tumor_samples(), 10u);
  EXPECT_EQ(split.train.normal_samples(), 22u);
  EXPECT_EQ(split.test.normal_samples(), 8u);
  EXPECT_EQ(split.train.genes(), data.genes());
  EXPECT_EQ(split.train.planted, data.planted);
}

TEST(SplitDataset, MutationMassConserved) {
  const Dataset data = generate_dataset(small_spec());
  const auto split = split_dataset(data, 0.75, 99);
  EXPECT_EQ(split.train.tumor.total_set_bits() + split.test.tumor.total_set_bits(),
            data.tumor.total_set_bits());
  EXPECT_EQ(split.train.normal.total_set_bits() + split.test.normal.total_set_bits(),
            data.normal.total_set_bits());
}

TEST(SplitDataset, DeterministicGivenSeed) {
  const Dataset data = generate_dataset(small_spec());
  const auto a = split_dataset(data, 0.75, 5);
  const auto b = split_dataset(data, 0.75, 5);
  EXPECT_EQ(a.train.tumor, b.train.tumor);
  const auto c = split_dataset(data, 0.75, 6);
  EXPECT_NE(a.train.tumor, c.train.tumor);
}

TEST(SplitDataset, RejectsFractionsOutsideTheOpenUnitInterval) {
  // Checked in every build: a NaN or negative fraction once reached a
  // float-to-integer conversion (undefined behaviour) in release builds.
  const Dataset data = generate_dataset(small_spec());
  for (const double fraction : {std::nan(""), 0.0, 1.0, -0.5, 2.0}) {
    SCOPED_TRACE(fraction);
    try {
      split_dataset(data, fraction, 1);
      ADD_FAILURE() << "fraction accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("train_fraction " + std::to_string(fraction)),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------ golden digests

/// FNV-1a over a dataset's dimensions, every packed word of its tumor and
/// normal rows (tail bits included) and its planted combinations.
std::uint64_t dataset_digest(const Dataset& data) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto add = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  add(data.genes());
  add(data.tumor_samples());
  add(data.normal_samples());
  for (const BitMatrix* matrix : {&data.tumor, &data.normal}) {
    for (std::uint32_t g = 0; g < matrix->genes(); ++g) {
      for (const std::uint64_t word : matrix->row(g)) add(word);
    }
  }
  add(data.planted.size());
  for (const auto& combo : data.planted) {
    add(combo.size());
    for (const std::uint32_t gene : combo) add(gene);
  }
  return hash;
}

struct GoldenCase {
  std::string name;
  SyntheticSpec spec;
  std::uint64_t digest;
};

void expect_golden(const std::vector<GoldenCase>& cases) {
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(dataset_digest(generate_dataset(c.spec)), c.digest);
  }
}

SyntheticSpec sweep4_spec(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 72;
  spec.tumor_samples = 120;
  spec.normal_samples = 80;
  spec.hits = 4;
  spec.num_combinations = 5;
  spec.background_rate = 0.012;
  spec.seed = seed;
  return spec;
}

SyntheticSpec cover2_spec(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 300;
  spec.tumor_samples = 1600;
  spec.normal_samples = 1000;
  spec.hits = 2;
  spec.num_combinations = 60;
  spec.background_rate = 0.01;
  spec.seed = seed;
  return spec;
}

// The expected digests were taken from the generator's per-bit reference
// loop and are never re-taken: a generator change that moves one draw, one
// bit or one planted gene of any of these datasets fails here.
TEST(Generator, GoldenDigestWallbenchSpecs) {
  expect_golden({
      {"sweep4 seed 7", sweep4_spec(7), 0xba61d8074c1d14a8ULL},
      {"sweep4 seed 8", sweep4_spec(8), 0x3e1b3c0584bc960aULL},
      {"cover2 seed 7", cover2_spec(7), 0xfda869739f4af1c4ULL},
      {"cover2 seed 8", cover2_spec(8), 0x45d69bfe8acb4844ULL},
  });
}

TEST(Generator, GoldenDigestRegistrySpecs) {
  const std::vector<std::uint64_t> functional = {
      0x712706156c300ddbULL, 0x99834bde553cb48eULL, 0x3be690ec8a555697ULL,
      0x9e335db8a2aa381eULL, 0x3d4517776f2e14e2ULL, 0xd31e0b81dfefc39aULL,
      0x33c493b93bfd7023ULL, 0x07a0ac97f3f82090ULL, 0x4d79f6eef0ed1a04ULL,
      0x6050f5b767a1e745ULL, 0xf1ac992a5a239b11ULL, 0xe7cf7dddee994ae4ULL,
  };
  const std::vector<std::uint64_t> served = {
      0x5748b4311c512d18ULL, 0x34c046d2840f3e2cULL, 0x3ae2ef0a474174b0ULL,
      0xdb8543c5514a8bcdULL, 0x020b4aaeb89ceabfULL, 0x25743341f2284247ULL,
      0x66012bc71720eb62ULL, 0xcf16ae619b825034ULL, 0x6441acdb0678aeb7ULL,
      0x2a136c9f9435ff23ULL, 0x753962105908353eULL, 0xe7b67495afe936edULL,
  };
  const auto& registry = cancer_registry();
  ASSERT_EQ(registry.size(), functional.size());
  ASSERT_EQ(registry.size(), served.size());
  std::vector<GoldenCase> cases;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    cases.push_back({registry[i].code + " functional", registry[i].functional, functional[i]});
    cases.push_back(
        {registry[i].code + " served", serve::CancerCache::serve_spec(registry[i]), served[i]});
  }
  expect_golden(cases);
}

/// small_spec() with its rates and sample counts replaced.
SyntheticSpec edge_spec(double detect, double contamination, double background, double excess,
                        std::uint32_t tumor = 40, std::uint32_t normal = 30) {
  SyntheticSpec spec = small_spec();
  spec.driver_detect_rate = detect;
  spec.normal_contamination = contamination;
  spec.background_rate = background;
  spec.tumor_excess_rate = excess;
  spec.tumor_samples = tumor;
  spec.normal_samples = normal;
  return spec;
}

TEST(Generator, GoldenDigestEdgeSpecs) {
  // Rates at the ends of [0, 1] (no draw), a tumor rate past 1 (background
  // 0.5 + excess 0.6), partial and exact 64-sample words, and empty sample
  // sets.
  const double nan = std::nan("");
  expect_golden({
      {"detect 0.97", edge_spec(0.97, 0.0, 0.02, 0.0), 0x6bccfbb112fd0296ULL},
      {"contamination 0", edge_spec(1.0, 0.0, 0.02, 0.0), 0xd370d2e3caa29850ULL},
      {"contamination 0.03", edge_spec(1.0, 0.03, 0.02, 0.0), 0x47622328acaae8b5ULL},
      {"contamination 1", edge_spec(1.0, 1.0, 0.02, 0.0), 0x0b4653cc835725e2ULL},
      {"contamination 1 detect 0.97", edge_spec(0.97, 1.0, 0.02, 0.0), 0xd8de29412f39f933ULL},
      {"background 0", edge_spec(1.0, 0.0, 0.0, 0.0), 0x817c27526e14676cULL},
      {"background 1", edge_spec(1.0, 0.0, 1.0, 0.0), 0xe74d3af18b47c8dbULL},
      {"background 0 excess 0.3", edge_spec(1.0, 0.0, 0.0, 0.3), 0x4a4f82e3f62f3118ULL},
      {"background 0.5 excess 0.6", edge_spec(1.0, 0.0, 0.5, 0.6), 0xac01340768fa8ad9ULL},
      {"tumor 0", edge_spec(1.0, 0.03, 0.02, 0.0, 0, 30), 0x5784219c0b65bd20ULL},
      {"tumor 1", edge_spec(1.0, 0.03, 0.02, 0.0, 1, 30), 0x0fe6580849805623ULL},
      {"tumor 63", edge_spec(1.0, 0.03, 0.02, 0.0, 63, 30), 0x77e8e6de137e8dc3ULL},
      {"tumor 64", edge_spec(1.0, 0.03, 0.02, 0.0, 64, 30), 0x0498d661672fdc65ULL},
      {"tumor 65", edge_spec(1.0, 0.03, 0.02, 0.0, 65, 30), 0xfe50b6ef31e90e25ULL},
      {"normal 0", edge_spec(1.0, 0.03, 0.02, 0.0, 40, 0), 0x7dd158e56c32d2cbULL},
      {"normal 1", edge_spec(1.0, 0.03, 0.02, 0.0, 40, 1), 0x6af9eb6432541c3cULL},
      {"normal 63", edge_spec(1.0, 0.03, 0.02, 0.0, 40, 63), 0xc5991166d831d366ULL},
      {"normal 64", edge_spec(1.0, 0.03, 0.02, 0.0, 40, 64), 0xc5747d92f284983dULL},
      {"normal 65", edge_spec(1.0, 0.03, 0.02, 0.0, 40, 65), 0x93609c7732d56bc3ULL},
  });
  // NaN rates are rejected before any draw.
  EXPECT_THROW(generate_dataset(edge_spec(1.0, nan, 0.02, 0.0)), std::invalid_argument)
      << "contamination NaN";
  EXPECT_THROW(generate_dataset(edge_spec(1.0, 0.0, nan, 0.0)), std::invalid_argument)
      << "background NaN";
  EXPECT_THROW(generate_dataset(edge_spec(1.0, 0.0, 0.02, nan)), std::invalid_argument)
      << "excess NaN";
}

}  // namespace
}  // namespace multihit
