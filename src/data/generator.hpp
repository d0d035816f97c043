#pragma once
// Synthetic gene-sample data with planted multi-hit combinations.
//
// The paper's input is TCGA somatic mutation data (Mutect2 calls, 31 cancer
// types). That data is access-controlled, so this generator produces the
// closest synthetic equivalent: sparse background mutations everywhere, and
// for each tumor sample one planted "driver" combination of h genes that is
// fully mutated. The weighted-set-cover engine should then recover the
// planted combinations — a ground truth the real data cannot provide.

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace multihit {

struct SyntheticSpec {
  std::uint32_t genes = 200;           ///< G
  std::uint32_t tumor_samples = 120;   ///< N_t
  std::uint32_t normal_samples = 80;   ///< N_n
  std::uint32_t hits = 3;              ///< h, genes per planted combination
  std::uint32_t num_combinations = 4;  ///< planted driver combinations
  /// Probability that each driver gene of the sample's assigned combination
  /// is actually observed mutated (models imperfect mutation calling).
  double driver_detect_rate = 1.0;
  /// Per gene-sample background ("passenger") mutation probability, applied
  /// to tumor and normal samples alike.
  double background_rate = 0.01;
  /// Extra per-gene mutation probability in tumor samples only (models the
  /// elevated somatic mutation load of tumors).
  double tumor_excess_rate = 0.0;
  /// Fraction of normal samples carrying one planted combination anyway
  /// (germline carriers / sample mislabeling) — what keeps real-data
  /// specificity below 1.0 (the paper reports 90%).
  double normal_contamination = 0.0;
  std::uint64_t seed = 42;
};

class Rng;

/// Generates a Dataset per `spec`. Planted combinations use disjoint gene
/// sets (requires hits * num_combinations <= genes); every tumor sample is
/// assigned one planted combination round-robin-randomly. Throws
/// std::invalid_argument naming the bound, before allocating anything, when
/// genes exceeds kMaxGenes, a sample count exceeds kMaxSamples or a matrix
/// would exceed kMaxMatrixWords (bitmat/bitmatrix.hpp), and naming the
/// field and its value when a rate is NaN or outside [0, 1]. The tumor
/// rate background_rate + tumor_excess_rate may exceed 1 (every tumor bit
/// set).
///
/// The dataset is a pure function of `spec`: one Rng seeded with spec.seed
/// draws, in this order, the planted genes, the shuffled assignment, each
/// tumor sample's driver bits, each normal sample's contamination, then per
/// gene its tumor row and its normal row (or_bernoulli_row).
Dataset generate_dataset(const SyntheticSpec& spec);

/// ORs a Bernoulli(p) row into row `gene` of `matrix`: sample s gets set iff
/// the s-th of matrix.samples() consecutive rng.bernoulli(p) calls would
/// succeed, and the row's other bits, tail included, are left as they were.
/// It takes exactly the draws those calls take, in sample order (none when
/// p <= 0 or p >= 1, one per sample otherwise, NaN included), but builds
/// each 64-sample word from 64 inline draws and ORs it in once.
void or_bernoulli_row(Rng& rng, double p, BitMatrix& matrix, std::uint32_t gene);

}  // namespace multihit
