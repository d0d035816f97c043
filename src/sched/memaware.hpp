#pragma once
// Memory-aware equi-area scheduling — the paper's §V future-work item 4.
//
// The published equi-area scheduler balances *combination counts*, but the
// per-combination memory traffic differs across the thread space: every
// thread additionally streams its fixed rows once (the MemOpt prefetch
// setup), so partitions dense in short threads carry more bytes per
// combination than partitions of long threads. At high GPU counts the tail
// partition concentrates ever-shorter threads and becomes the straggler.
//
// The fix is a one-line generalization: run the same O(G) equi-area walk
// over a reweighted workload model whose per-thread weight is the modeled
// traffic, cost = per_combination · work + per_thread. Weights follow the
// kernels' global-word formulas (scheme_stats in core/schemes.hpp).

#include <cstdint>
#include <vector>

#include "core/schemes.hpp"
#include "sched/schedule.hpp"
#include "sched/workload.hpp"

namespace multihit {

/// Global memory traffic per combination / per thread, in units of one
/// packed row pair (tumor + normal), matching the analytic stats formulas.
struct MemoryCostWeights {
  u64 per_combination = 1;
  u64 per_thread = 0;
};

/// Weights for the deployed "flatten all but the innermost loop" schemes
/// (2-hit 1x1, 3-hit 2x1, 4-hit 3x1, 5-hit 4x1) under the given MemOpts.
MemoryCostWeights memory_cost_weights(std::uint32_t hits, const MemOpts& opts) noexcept;

/// Equi-area over the traffic-reweighted model. Partition boundaries are λ
/// indices of the *original* thread space.
std::vector<Partition> memaware_schedule(const WorkloadModel& model, std::uint32_t units,
                                         const MemoryCostWeights& weights);

}  // namespace multihit
