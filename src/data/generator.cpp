#include "data/generator.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace multihit {

void or_bernoulli_row(Rng& rng, double p, BitMatrix& matrix, std::uint32_t gene) {
  if (p <= 0.0) return;
  const std::span<std::uint64_t> row = matrix.row(gene);
  const std::uint32_t samples = matrix.samples();
  const auto width = [samples](std::size_t w) {
    return static_cast<unsigned>(std::min<std::uint64_t>(64, samples - 64 * std::uint64_t{w}));
  };
  if (p >= 1.0) {
    for (std::size_t w = 0; w < row.size(); ++w) row[w] |= ~std::uint64_t{0} >> (64 - width(w));
    return;
  }
  const std::uint64_t threshold = Rng::bernoulli_threshold(p);
  for (std::size_t w = 0; w < row.size(); ++w) {
    const unsigned n = width(w);
    std::uint64_t word = 0;
    for (unsigned b = 0; b < n; ++b) {
      word |= static_cast<std::uint64_t>((rng() >> 11) < threshold) << b;
    }
    row[w] |= word;
  }
}

Dataset generate_dataset(const SyntheticSpec& spec) {
  // Sizes first: nothing below may allocate from an unchecked dimension.
  if (spec.genes > kMaxGenes) {
    throw std::invalid_argument("SyntheticSpec genes " + std::to_string(spec.genes) +
                                " exceeds kMaxGenes " + std::to_string(kMaxGenes));
  }
  for (const auto& [name, samples] : {std::pair{"tumor_samples", spec.tumor_samples},
                                      std::pair{"normal_samples", spec.normal_samples}}) {
    if (samples > kMaxSamples) {
      throw std::invalid_argument(std::string("SyntheticSpec ") + name + " " +
                                  std::to_string(samples) + " exceeds kMaxSamples " +
                                  std::to_string(kMaxSamples));
    }
    if (matrix_words(spec.genes, samples) > kMaxMatrixWords) {
      throw std::invalid_argument(std::string("SyntheticSpec genes x ") + name + " needs " +
                                  std::to_string(matrix_words(spec.genes, samples)) +
                                  " words, exceeds kMaxMatrixWords " +
                                  std::to_string(kMaxMatrixWords));
    }
  }
  for (const auto& [name, rate] : {std::pair{"driver_detect_rate", spec.driver_detect_rate},
                                   std::pair{"background_rate", spec.background_rate},
                                   std::pair{"tumor_excess_rate", spec.tumor_excess_rate},
                                   std::pair{"normal_contamination", spec.normal_contamination}}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      char value[32];
      std::snprintf(value, sizeof value, "%g", rate);
      throw std::invalid_argument(std::string("SyntheticSpec ") + name + " " + value +
                                  " is not in [0, 1]");
    }
  }
  if (spec.hits == 0 || spec.num_combinations == 0) {
    throw std::invalid_argument("SyntheticSpec requires hits >= 1 and num_combinations >= 1");
  }
  if (static_cast<std::uint64_t>(spec.hits) * spec.num_combinations > spec.genes) {
    throw std::invalid_argument("not enough genes for disjoint planted combinations");
  }

  Rng rng(spec.seed);
  Dataset data;
  data.name = "synthetic";
  data.tumor = BitMatrix(spec.genes, spec.tumor_samples);
  data.normal = BitMatrix(spec.genes, spec.normal_samples);

  // Choose hits * num_combinations distinct driver genes and slice them into
  // disjoint combinations.
  const auto driver_genes = rng.sample_without_replacement(
      spec.genes, static_cast<std::uint64_t>(spec.hits) * spec.num_combinations);
  data.planted.resize(spec.num_combinations);
  for (std::uint32_t c = 0; c < spec.num_combinations; ++c) {
    auto& combo = data.planted[c];
    combo.reserve(spec.hits);
    for (std::uint32_t t = 0; t < spec.hits; ++t) {
      combo.push_back(static_cast<std::uint32_t>(driver_genes[c * spec.hits + t]));
    }
    std::sort(combo.begin(), combo.end());
  }

  // Each tumor sample carries one planted combination. Assign round-robin so
  // every combination covers a comparable share of samples, then shuffle the
  // assignment for realism.
  std::vector<std::uint32_t> assignment(spec.tumor_samples);
  for (std::uint32_t s = 0; s < spec.tumor_samples; ++s) {
    assignment[s] = s % spec.num_combinations;
  }
  rng.shuffle(assignment);

  for (std::uint32_t s = 0; s < spec.tumor_samples; ++s) {
    for (std::uint32_t gene : data.planted[assignment[s]]) {
      if (rng.bernoulli(spec.driver_detect_rate)) data.tumor.set(gene, s);
    }
  }

  // A small fraction of normal samples carry a planted combination
  // (germline carriers / mislabeled samples).
  for (std::uint32_t s = 0; s < spec.normal_samples; ++s) {
    if (!rng.bernoulli(spec.normal_contamination)) continue;
    const auto combo_idx = static_cast<std::uint32_t>(rng.uniform(spec.num_combinations));
    for (std::uint32_t gene : data.planted[combo_idx]) {
      if (rng.bernoulli(spec.driver_detect_rate)) data.normal.set(gene, s);
    }
  }

  // Background mutations: everywhere, both classes; tumors optionally carry
  // an extra load.
  const double tumor_rate = spec.background_rate + spec.tumor_excess_rate;
  for (std::uint32_t g = 0; g < spec.genes; ++g) {
    or_bernoulli_row(rng, tumor_rate, data.tumor, g);
    or_bernoulli_row(rng, spec.background_rate, data.normal, g);
  }

  return data;
}

}  // namespace multihit
