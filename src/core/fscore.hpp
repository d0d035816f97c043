#pragma once
// The weighted-set-cover objective (paper Eq. 1):
//
//   F = (α·TP + TN) / (N_t + N_n)
//
// TP = tumor samples carrying mutations in *all* genes of the combination,
// TN = normal samples *not* carrying mutations in all genes, α = 0.1 is the
// penalty offsetting the algorithm's bias toward true positives.
//
// Between greedy iterations the exclusion step only removes (or zeroes)
// tumor samples, so no combination's TP rises and, with α >= 0, neither
// does its numerator α·TP + TN. A numerator bound taken in one iteration
// therefore bounds the same combinations in every later one: that is what
// the carried bounds of core/schemes.hpp keep. Rounding is monotone, so a
// bound computed by f_score's own numerator expression stays a bound after
// the division: f_score(tp', nh') <= U / (N_t + N_n) whenever tp' <= tp,
// nh' >= nh and U = α·tp + (N_n - nh) in double arithmetic.

#include <cstdint>

namespace multihit {

class CarriedBounds;

struct FParams {
  double alpha = 0.1;
};

/// Denominator context for one greedy iteration: the tumor count is the
/// number of samples still uncovered; the normal count never changes.
struct FContext {
  FParams params;
  std::uint64_t tumor_total = 0;   ///< N_t (remaining tumor samples)
  std::uint64_t normal_total = 0;  ///< N_n
  /// The running Engine's carried-bound state (core/schemes.hpp), valid for
  /// this iteration only. The kernel and host-sweep evaluators use it to
  /// skip threads that cannot win; every other evaluator ignores it. Null
  /// outside an Engine.
  CarriedBounds* carried = nullptr;
};

/// Eq. 1's numerator α·TP + TN, the quantity carried bounds keep.
/// `normal_hits` is the intersection cardinality on the normal matrix, so
/// TN = normal_total - normal_hits.
inline double f_numerator(const FContext& ctx, std::uint64_t tp,
                          std::uint64_t normal_hits) noexcept {
  const double tn = static_cast<double>(ctx.normal_total - normal_hits);
  return ctx.params.alpha * static_cast<double>(tp) + tn;
}

/// Eq. 1: the numerator over the iteration's denominator N_t + N_n.
inline double f_score(const FContext& ctx, std::uint64_t tp, std::uint64_t normal_hits) noexcept {
  return f_numerator(ctx, tp, normal_hits) /
         static_cast<double>(ctx.tumor_total + ctx.normal_total);
}

}  // namespace multihit
