#pragma once
// Analytic per-thread workload models.
//
// Every scheme's thread space decomposes into contiguous *levels* of equal
// per-thread work (paper §III-C): e.g. for the 4-hit 3x1 scheme all C(k,2)
// threads whose largest gene is k run an inner loop of exactly G-1-k
// iterations.
// The O(G) equi-area scheduler exploits exactly this structure, as does the
// exact prefix-work arithmetic used to audit any partition.

#include <cstdint>
#include <span>
#include <vector>

#include "combinat/binomial.hpp"
#include "core/schemes.hpp"

namespace multihit {

/// A maximal run of threads with identical workload.
struct WorkLevel {
  u64 first_lambda = 0;      ///< first thread id of the level
  u64 thread_count = 0;      ///< number of threads in the level
  u64 work_per_thread = 0;   ///< combinations each of them evaluates
};

/// Level-structured description of one scheme's thread space.
class WorkloadModel {
 public:
  /// Levels of `scheme` over `genes`: one level per top flat gene t (the
  /// C(t, flat-1) threads [C(t, flat), C(t+1, flat)) each own
  /// C(G-1-t, hits-flat) combinations), or a single level when flat == hits.
  /// Throws std::invalid_argument like scheme_threads().
  static WorkloadModel for_scheme(Scheme scheme, std::uint32_t genes);

  std::uint32_t genes() const noexcept { return genes_; }
  u64 total_threads() const noexcept { return total_threads_; }
  u128 total_work() const noexcept { return total_work_; }
  std::span<const WorkLevel> levels() const noexcept { return levels_; }

  /// Work of thread λ. O(log levels).
  u64 work_at(u64 lambda) const noexcept;

  /// Total work of threads [0, λ). Exact in 128 bits. O(log levels).
  u128 prefix_work(u64 lambda) const noexcept;

  /// Smallest λ with prefix_work(λ) >= target (λ may equal total_threads()).
  u64 lambda_for_prefix(u128 target) const noexcept;

  /// A model over the same thread space whose per-thread "work" is a memory
  /// cost: per_combination · work + per_thread. This is the paper's §V
  /// future-work item 4 ("incorporate memory latency into the scheduling
  /// algorithm"): equi-area over the reweighted model balances modeled
  /// traffic instead of raw combination counts. The partition λ boundaries
  /// remain valid for the original space (levels are unchanged).
  WorkloadModel reweighted(u64 per_combination, u64 per_thread) const;

 private:
  void finalize();

  std::uint32_t genes_ = 0;
  u64 total_threads_ = 0;
  u128 total_work_ = 0;
  std::vector<WorkLevel> levels_;
  std::vector<u128> cumulative_work_;  ///< work before each level
};

}  // namespace multihit
