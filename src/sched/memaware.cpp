#include "sched/memaware.hpp"

namespace multihit {

MemoryCostWeights memory_cost_weights(std::uint32_t hits, const MemOpts& opts) noexcept {
  // Deployed kernels: thread = (h-1)-prefix, inner loop over the last gene.
  // Global rows touched per combination / per thread (setup), from the
  // scheme_stats formulas (core/schemes.hpp):
  //   prefetch_j: 1 row per combination, h-1 rows of setup per thread
  //   prefetch_i: h-1 rows per combination, 1 row of setup per thread
  //   none:       h   rows per combination, no setup
  if (hits < 2) return {1, 0};
  const u64 h = hits;
  if (opts.prefetch_j) return {1, h - 1};
  if (opts.prefetch_i) return {h - 1, 1};
  return {h, 0};
}

std::vector<Partition> memaware_schedule(const WorkloadModel& model, std::uint32_t units,
                                         const MemoryCostWeights& weights) {
  const WorkloadModel costed = model.reweighted(weights.per_combination, weights.per_thread);
  return equiarea_schedule(costed, units);
}

}  // namespace multihit
