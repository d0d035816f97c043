#include "core/serial.hpp"

#include <stdexcept>
#include <string>

#include "combinat/unrank.hpp"

namespace multihit {

EvalResult serial_find_best(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                            std::uint32_t hits) {
  if (tumor.genes() != normal.genes()) {
    throw std::invalid_argument("serial_find_best: tumor has " + std::to_string(tumor.genes()) +
                                " genes, normal has " + std::to_string(normal.genes()));
  }
  if (hits == 0) throw std::invalid_argument("serial_find_best: hits must be >= 1");
  const std::uint32_t genes = tumor.genes();
  if (genes < hits) return {};

  EvalResult best;
  auto combo = first_combination(hits);
  std::uint64_t lambda = 0;
  do {
    const std::uint64_t tp = tumor.intersect_count(combo);
    const std::uint64_t nh = normal.intersect_count(combo);
    EvalResult candidate;
    candidate.valid = true;
    candidate.f = f_score(ctx, tp, nh);
    candidate.combo_rank = lambda;
    candidate.tp = tp;
    candidate.tn = ctx.normal_total - nh;
    best = merge_results(best, candidate);
    ++lambda;
  } while (next_combination_colex(combo, genes));
  return best;
}

}  // namespace multihit
