#include "core/engine.hpp"

#include <vector>

#include "core/schemes.hpp"
#include "core/serial.hpp"

namespace multihit {

// run_greedy lives in session.cpp: it is a one-shot Engine session, so the
// greedy loop has exactly one implementation (see core/session.hpp).

std::vector<std::vector<std::uint32_t>> GreedyResult::combinations() const {
  std::vector<std::vector<std::uint32_t>> combos;
  combos.reserve(iterations.size());
  for (const auto& it : iterations) combos.push_back(it.genes);
  return combos;
}

Evaluator make_serial_evaluator(std::uint32_t hits) {
  return [hits](const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx) {
    return serial_find_best(tumor, normal, ctx, hits);
  };
}

Evaluator make_kernel_evaluator(std::uint32_t hits, KernelCounts* counts_sink) {
  if (hits < 2) return make_serial_evaluator(hits);
  const Scheme scheme{hits, hits - 1};
  return [scheme, counts_sink](const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx) {
    CarriedBounds* carried =
        ctx.carried != nullptr && ctx.carried->begin(tumor, ctx, scheme.hits) ? ctx.carried
                                                                              : nullptr;
    // One row-count pass for the floor and the kernel.
    std::vector<std::uint64_t> row_counts(tumor.genes());
    tumor_row_counts(tumor, row_counts);
    const double floor = greedy_floor(tumor, normal, ctx, scheme.hits, row_counts);
    const EvalResult best =
        evaluate_range(tumor, normal, ctx, scheme, 0, scheme_threads(scheme, tumor.genes()),
                       floor, counts_sink, carried, row_counts);
    if (carried != nullptr) carried->finish();
    return best;
  };
}

}  // namespace multihit
