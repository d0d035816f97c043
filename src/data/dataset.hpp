#pragma once
// The algorithm's input: a pair of binary gene-sample matrices (tumor and
// normal) for one cancer type, plus the planted ground-truth combinations
// when the data is synthetic.

#include <cstdint>
#include <string>
#include <vector>

#include "bitmat/bitmatrix.hpp"

namespace multihit {

struct Dataset {
  std::string name;
  BitMatrix tumor;   ///< genes x tumor-sample matrix
  BitMatrix normal;  ///< genes x normal-sample matrix

  /// Ground-truth combinations planted by the synthetic generator (sorted
  /// gene ids). Empty for real or unlabeled data.
  std::vector<std::vector<std::uint32_t>> planted;

  std::uint32_t genes() const noexcept { return tumor.genes(); }
  std::uint32_t tumor_samples() const noexcept { return tumor.samples(); }
  std::uint32_t normal_samples() const noexcept { return normal.samples(); }
};

/// A 75/25-style train/test partition (the paper's protocol, §III-G).
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Randomly partitions tumor and normal samples into train and test sets.
/// `train_fraction` of each class goes to train (rounded down, at least one
/// sample per side when the class is non-empty). Deterministic given `seed`.
/// Throws std::invalid_argument unless 0 < train_fraction < 1 (NaN included).
TrainTestSplit split_dataset(const Dataset& data, double train_fraction, std::uint64_t seed);

}  // namespace multihit
