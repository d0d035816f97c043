#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace multihit {

namespace {

// Extracts the sub-matrix with the given sample columns via splice_columns.
BitMatrix select_samples(const BitMatrix& matrix, const std::vector<std::uint64_t>& keep_mask) {
  BitMatrix copy = matrix;
  copy.splice_columns(keep_mask);
  return copy;
}

std::vector<std::uint64_t> make_mask(std::uint32_t samples,
                                     const std::vector<std::uint64_t>& chosen) {
  std::vector<std::uint64_t> mask((samples + 63) / 64, 0);
  for (std::uint64_t s : chosen) mask[s / 64] |= (std::uint64_t{1} << (s % 64));
  return mask;
}

// splice_columns ignores bits beyond the sample count, so the final word
// needs no trimming.
std::vector<std::uint64_t> complement_mask(const std::vector<std::uint64_t>& mask) {
  std::vector<std::uint64_t> inverted(mask.size());
  for (std::size_t w = 0; w < mask.size(); ++w) inverted[w] = ~mask[w];
  return inverted;
}

}  // namespace

TrainTestSplit split_dataset(const Dataset& data, double train_fraction, std::uint64_t seed) {
  // Written so NaN fails too; a NaN or negative fraction must never reach
  // the integer conversion below (undefined behaviour).
  if (!(train_fraction > 0.0 && train_fraction < 1.0)) {
    throw std::invalid_argument("split_dataset: train_fraction " + std::to_string(train_fraction) +
                                " is not in (0, 1)");
  }
  Rng rng(seed);

  auto pick = [&](std::uint32_t total) {
    auto count = static_cast<std::uint64_t>(train_fraction * total);
    if (total > 1) {
      count = std::clamp<std::uint64_t>(count, 1, total - 1);
    } else {
      count = total;  // degenerate single-sample class: all go to train
    }
    return rng.sample_without_replacement(total, count);
  };

  const auto tumor_train = pick(data.tumor_samples());
  const auto normal_train = pick(data.normal_samples());

  const auto tumor_mask = make_mask(data.tumor_samples(), tumor_train);
  const auto normal_mask = make_mask(data.normal_samples(), normal_train);

  TrainTestSplit split;
  split.train.name = data.name + "/train";
  split.train.tumor = select_samples(data.tumor, tumor_mask);
  split.train.normal = select_samples(data.normal, normal_mask);
  split.train.planted = data.planted;

  split.test.name = data.name + "/test";
  split.test.tumor = select_samples(data.tumor, complement_mask(tumor_mask));
  split.test.normal = select_samples(data.normal, complement_mask(normal_mask));
  split.test.planted = data.planted;
  return split;
}

}  // namespace multihit
