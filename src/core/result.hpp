#pragma once
// Result and accounting types shared by every evaluation path (serial
// reference, scheme kernels, GPU simulator, distributed cluster run). The
// kernel counts what it visits (KernelCounts); the GPU model prices what a
// launch would move (KernelStats).

#include <cstdint>

namespace multihit {

/// The best combination found in some λ range. `combo_rank` is the global
/// colexicographic rank of the h-gene combination (see combinat/unrank.hpp),
/// which doubles as the deterministic tie-breaker: on equal F, the lower
/// rank wins, so every execution order returns an identical winner.
struct EvalResult {
  double f = -1.0;
  std::uint64_t combo_rank = 0;
  std::uint64_t tp = 0;
  std::uint64_t tn = 0;
  bool valid = false;

  /// Strict "is strictly better than" under (F desc, rank asc).
  bool better_than(const EvalResult& other) const noexcept {
    if (!valid) return false;
    if (!other.valid) return true;
    if (f != other.f) return f > other.f;
    return combo_rank < other.combo_rank;
  }
};

/// Merges two partial results (the reduction operator). Associative and
/// commutative, with invalid results as the identity.
inline EvalResult merge_results(const EvalResult& a, const EvalResult& b) noexcept {
  return b.better_than(a) ? b : a;
}

/// What the enumeration kernel (evaluate_range) counts as it runs. A pruned
/// combination costs no kernel call; a leaf-cut one costs one tumor
/// and_popcount; every other one costs one per matrix, so the dispatched
/// two-row calls number exactly 2·(combinations − pruned) − leaf_cut.
struct KernelCounts {
  std::uint64_t combinations = 0;  ///< combinations covered, scored or cut
  std::uint64_t pruned = 0;        ///< of those, skipped under a cut prefix,
                                   ///< on their innermost gene's row count or
                                   ///< on their thread's carried bound
  std::uint64_t leaf_cut = 0;      ///< of the rest, cut on their own tumor count
  std::uint64_t threads_skipped = 0;  ///< flat threads skipped whole on their
                                      ///< carried bound (their combinations
                                      ///< count in pruned)

  KernelCounts& operator+=(const KernelCounts& other) noexcept {
    combinations += other.combinations;
    pruned += other.pruned;
    leaf_cut += other.leaf_cut;
    threads_skipped += other.threads_skipped;
    return *this;
  }
};

/// Modeled operation/traffic counts of a kernel launch on the simulated GPU,
/// produced in closed form by scheme_stats and priced by the GPU performance
/// model. Counted in units of 64-bit words.
struct KernelStats {
  std::uint64_t combinations = 0;  ///< combinations covered
  std::uint64_t word_ops = 0;      ///< bitwise AND+popcount word operations
  std::uint64_t global_words = 0;  ///< words read from (simulated) global memory
  std::uint64_t local_words = 0;   ///< words served from prefetched local memory
  std::uint64_t distinct_rows = 0; ///< distinct matrix rows touched (locality proxy)
};

}  // namespace multihit
