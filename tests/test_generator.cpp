#include "data/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "data/dataset.hpp"

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

}  // namespace
}  // namespace multihit
