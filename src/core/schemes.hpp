#pragma once
// The paper's parallelization schemes (§III-A) as one range kernel.
//
// A sequential h-hit scan is h nested loops over g_0 < g_1 < ... < g_{h-1}.
// Flattening the outer `flat` loops into a single linear thread id λ (the
// colex rank of the thread's flat genes) yields Scheme{hits, flat}:
//
//   threads          C(G, flat)
//   thread λ         the flat genes c_0 < ... < c_{flat-1} of rank λ
//   inner work       C(G-1-c_{flat-1}, hits-flat) combinations
//
// For 4 hits: 1x3 (G threads, work C(G-1-i,3)), 2x2 (C(G,2) threads, work
// C(G-1-j,2)), 3x1 (C(G,3) threads, work G-1-k), 4x1 (one combination per
// thread). The paper implements 2x2 and then 3x1 — the winner: enough
// threads to saturate 6000 GPUs, with per-thread workload spread reduced from
// O(G²) to O(G). Every (hits, flat) is the same kernel here, so the
// scheduler and the ablation benches compare them freely.
//
// `evaluate_range` is the maxF kernel body: it scans threads λ ∈ [begin, end)
// of a scheme, computing F for every combination each thread owns on *both*
// matrices (TP from tumor, TN from normal), and returns the best EvalResult.
// It is an exact branch-and-bound: adding a gene only shrinks TP and the
// normal hits, so every extension of a prefix P has
// F <= f_score(TP(P), 0). The incumbent is bounded in the full order,
// F then rank: a prefix is not descended when its bound is strictly below
// the best F seen so far (or below a caller-supplied floor), nor when it
// equals the best F and every extension ranks after the best. The bounds
// are integer TP thresholds recomputed when the best F changes; the same
// thresholds cut each leaf on its own tumor count and, on tumor rows of 3+
// words, on its innermost gene's row count before any AND.
//
// The kernel only scores: besides the winner it reports its counts
// (KernelCounts). Its fold scratch is a per-thread buffer, (h-1)(wt+wn)
// words, that grows once and is reused.
//
// Carried bounds make the greedy lazy (Minoux's accelerated greedy). Given
// a CarriedBounds, the kernel bounds the F numerator α·TP + TN of every
// thread of Scheme{h, h-1} it touches: a scored leaf gives its exact
// numerator, leaves cut on their row or tumor count give α·c + N_n with c
// the largest count cut on (at most the prefix's), and a cut prefix gives
// α·c + N_n of its own count to every thread of its run. The exclusion
// step only removes tumor samples, so the bounds hold in every later
// iteration; once warm, the kernel skips a block of threads, or a thread,
// whose bound over the iteration's denominator cannot reach the floor or
// beat the incumbent. It still walks λ in order, so the rank tie cuts,
// the counts and the host sweep's thread invariance hold as without them.
//
// It runs one of three compiled bodies of one template, chosen per call:
// under the AVX2 bitops backend (whose CPU check includes POPCNT) a
// target("popcnt") body, which ANDs and counts rows inline when both
// matrices' rows are 1-2 words and calls the dispatched and_popcount /
// and_rows otherwise; under the scalar backend the portable baseline body.
// All three return the same winner, counts and bitops call counts.
//
// `scheme_stats` is the closed-form operation/traffic accounting of that
// kernel on the modeled GPU. For full-scale spaces (C(19411,4) ≈ 5.9e15
// combinations) nothing can enumerate, but the counts are exactly summable
// over the level structure of each scheme; that is what lets the performance
// model price paper-scale runs. GpuDevice prices each launch with one
// scheme_stats call over its partition, the same call the analytic cluster
// model makes, so both price launches identically by construction.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bitmat/bitmatrix.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"

namespace multihit {

/// h-hit enumeration with the outer `flat` loops folded into the thread id.
/// Valid when 1 <= flat <= hits and 2 <= hits <= kMaxSchemeHits.
struct Scheme {
  std::uint32_t hits = 0;
  std::uint32_t flat = 0;

  friend bool operator==(const Scheme&, const Scheme&) = default;
};

/// Deepest scheme the kernel supports (its fold stack lives on the stack).
inline constexpr std::uint32_t kMaxSchemeHits = 32;

/// "<flat>x<max(hits-flat, 1)>": "3x1", "2x2", "1x3", "4x1", ...
std::string scheme_name(Scheme scheme);

/// §III-D memory optimizations, as they shape the *modeled* GPU traffic in
/// scheme_stats. The host kernel always folds the fixed rows. BitSplicing is
/// engine-level (it mutates the matrix between greedy iterations) and
/// therefore lives in EngineConfig.
struct MemOpts {
  bool prefetch_i = false;  ///< MemOpt1: stage gene-i rows in local memory
  bool prefetch_j = false;  ///< MemOpt2: stage the folded fixed rows in
                            ///< local memory
};

/// Total thread count C(genes, flat). Throws std::invalid_argument for an
/// invalid scheme or when C(genes, hits) overflows u64 (combination ranks
/// must fit 64 bits; at 5 hits that caps genes at 18580).
std::uint64_t scheme_threads(Scheme scheme, std::uint32_t genes);

/// Combinations processed by thread λ: C(genes-1-top, hits-flat), where top
/// is the thread's largest flat gene. λ must be < scheme_threads().
std::uint64_t scheme_thread_work(Scheme scheme, std::uint32_t genes, std::uint64_t lambda);

/// Combinations owned by threads [begin, end): the sum of
/// scheme_thread_work over the range, in closed form per level, clipped at
/// the zero-work tail (threads from C(genes - (hits - flat), flat) on own
/// nothing). The whole space is C(genes, hits), in O(1). Requires a valid
/// scheme and end <= scheme_threads().
std::uint64_t scheme_range_work(Scheme scheme, std::uint32_t genes, std::uint64_t begin,
                                std::uint64_t end);

/// The `floor` argument of evaluate_range that prunes against the range's
/// own incumbent only.
inline constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

/// Upper bounds on the F numerator α·TP + TN of each flat thread of
/// Scheme{hits, hits-1}, carried from one greedy iteration to the next.
/// An Engine owns one per session and hands it to its evaluator through
/// FContext::carried; it starts cold, so a resumed session re-derives it.
///
/// Every block of threads keeps one bound for all of them: kBlockThreads
/// threads per block, or the power of two that keeps at most `max_blocks`
/// blocks, so BRCA-scale spaces fit in 128 KiB. 2-hit spaces, whose
/// threads are single genes tested before any fold, also keep one bound
/// per thread (G of them); deeper spaces keep blocks only, since per-thread
/// bounds there measured no faster and cost C(G, h-1) doubles a session;
/// without them a thread's bound is its block's, which lets the kernel cut
/// a run of threads at once (evaluate_range). A bound only ever falls. Carried ranges hold whole blocks, so each block and
/// thread is written by one evaluate_range call and host-sweep workers share
/// the state without locks.
///
/// Sound only for successive evaluations of one tumor matrix whose samples
/// are removed or zeroed between them, at one α >= 0 and one normal matrix
/// — what Engine guarantees. For α < 0 (the numerator rises as TP falls)
/// or hits < 2 it stays cold and unused.
class CarriedBounds {
 public:
  static constexpr std::uint64_t kBlockThreads = 64;
  static constexpr std::uint64_t kDefaultMaxBlocks = 16384;

  explicit CarriedBounds(std::uint64_t max_blocks = kDefaultMaxBlocks) noexcept
      : max_blocks_(max_blocks < 1 ? 1 : max_blocks) {}

  /// Readies the bounds for one whole-space evaluation of Scheme{hits,
  /// hits-1} and returns whether they apply. They do not for hits < 2 or
  /// an α that is negative or not finite. The bounds start over cold when
  /// the gene count, hits, α or N_n differ from the last evaluation's, or
  /// the tumor matrix is wider or has more samples left than it had.
  bool begin(const BitMatrix& tumor, const FContext& ctx, std::uint32_t hits);

  /// Ends the evaluation begin() opened; from now on the bounds are warm.
  void finish() noexcept { warm_ = true; }

  bool warm() const noexcept { return warm_; }

  /// True when warm block bounds prove that no thread in [begin, end) has
  /// a combination whose F reaches `floor` at `ctx`.
  bool skips(std::uint64_t begin, std::uint64_t end, double floor,
             const FContext& ctx) const noexcept;

  // The kernel's view of the state (evaluate_range).
  Scheme scheme() const noexcept { return scheme_; }
  std::uint64_t threads() const noexcept { return threads_; }
  /// log2 of the threads per block.
  unsigned block_shift() const noexcept { return shift_; }
  /// True when threads keep bounds of their own (2-hit spaces).
  bool per_thread() const noexcept { return !thread_ub_.empty(); }
  double block_bound(std::uint64_t block) const noexcept { return block_ub_[block]; }
  double thread_bound(std::uint64_t lambda) const noexcept {
    const double block = block_ub_[lambda >> shift_];
    return thread_ub_.empty() ? block : std::min(thread_ub_[lambda], block);
  }
  void lower_block(std::uint64_t block, double bound) noexcept {
    block_ub_[block] = std::min(block_ub_[block], bound);
  }
  void lower_thread(std::uint64_t lambda, double bound) noexcept {
    if (!thread_ub_.empty()) thread_ub_[lambda] = std::min(thread_ub_[lambda], bound);
  }

 private:
  std::uint64_t max_blocks_;
  Scheme scheme_{};
  std::uint32_t genes_ = 0;
  double alpha_ = 0.0;
  std::uint64_t normal_total_ = 0;
  std::uint64_t tumor_total_ = 0;
  std::size_t tumor_words_ = 0;
  std::uint64_t threads_ = 0;
  unsigned shift_ = std::countr_zero(kBlockThreads);  ///< log2 threads per block
  std::vector<double> block_ub_;
  std::vector<double> thread_ub_;  ///< 2-hit spaces only
  bool warm_ = false;
};

/// The tumor popcount of every gene's row, in gene order: the one row-count
/// pass of an evaluation, which greedy_floor and evaluate_range both read.
/// The evaluators (make_kernel_evaluator, host_sweep_find_best) fill it once
/// per evaluation; the host sweep fills it before its workers start. Counted
/// with POPCNT under the AVX2 bitops backend (whose CPU check includes it),
/// by the portable loop otherwise; no bitops call is counted. Throws
/// std::invalid_argument when counts.size() != tumor.genes(), naming both.
void tumor_row_counts(const BitMatrix& tumor, std::span<std::uint64_t> counts);

/// maxF kernel over threads [begin, end) of `scheme`. Throws
/// std::invalid_argument when the matrices' gene counts differ, like
/// scheme_threads, or when a non-empty range ends past scheme_threads().
/// `counts`, when non-null, accumulates KernelCounts: the combinations the
/// range covers, those cut without a kernel call, and those cut on their
/// own tumor count. A prefix is cut when its bound is strictly below
/// max(floor, the range's best F so far), or equals the best F while a
/// lower bound on its extensions' ranks is above the best's rank; a tie
/// with the floor alone is never cut, since the floor has no rank. Without
/// a floor the result is the exact best of the range; with one it is exact
/// whenever that best is >= floor, which the whole space's argmax always is
/// when `floor` is the F of a combination in it (see greedy_floor).
/// `carried`, when non-null, must have been readied by begin() for this
/// scheme, and the range must start on a block boundary and end on one or
/// at the space's end (std::invalid_argument otherwise): the kernel records
/// its threads' bounds there and, once they are warm, also cuts a block or
/// a thread whose bound is strictly below max(floor, best F), or equals the
/// best F while every combination it owns ranks after the best's. Without
/// per-thread bounds (h >= 3), a thread cut on its block's bound takes the
/// rest of its smallest-digit run with it (the threads that differ from it
/// only in their smallest flat gene): they share its folded prefix, its
/// bound and its top gene and rank after it, so a thread-by-thread walk
/// would cut each of them by the same test. The run stops at the block's
/// end, where the next block's bound is tested, and at its own end, where
/// the next prefix may be cut on its count and lower the bounds of every
/// block its run spans; so counts and stored bounds are the walk's.
/// Skipped threads count in KernelCounts::threads_skipped and their
/// combinations in pruned. The ignored FContext::carried never enables it.
/// `row_counts` is the evaluation's tumor_row_counts table, which the
/// kernel's row-count cut reads on tumor rows of 3+ words; empty, the call
/// counts the rows itself through tumor_row_counts, so a chunked
/// evaluation that passes its table counts them once rather than once per
/// chunk. Either way the result and every count are the same. A non-empty
/// table whose size is not genes() throws std::invalid_argument.
///
/// Cost: the scan visits only threads that own combinations. With
/// d = hits - flat >= 1, threads from C(genes - d, flat) on own none (their
/// top flat gene leaves fewer than d genes above it) and the top flat gene
/// never decreases along λ, so that zero-work tail runs to the end of the
/// space: without `carried` the scan stops there; with it, it steps from
/// block boundary to block boundary, storing each tail block's bound and
/// running the warm block test at each, so threads_skipped counts the tail
/// blocks it skips as a thread-by-thread walk would. Repositioning after a
/// block skip unranks λ with closed-form binomials (no 128-bit division),
/// and the range's combination count is scheme_range_work, O(1) for the
/// whole space.
EvalResult evaluate_range(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                          Scheme scheme, std::uint64_t begin, std::uint64_t end,
                          double floor = kNoFloor, KernelCounts* counts = nullptr,
                          CarriedBounds* carried = nullptr,
                          std::span<const std::uint64_t> row_counts = {});

/// The exact F of one h-gene combination built greedily: each step adds the
/// gene keeping the most tumor TP (ties to the lowest index). It is a lower
/// bound on the space's best F, computed by the kernel's own expression, so
/// it is a sound `floor` for evaluate_range. kNoFloor when genes < hits.
///
/// Cost: no dispatched call for step 0, whose pick is the argmax of the row
/// counts; each later step visits the genes in descending row count (ties
/// by ascending index, one stable counting sort per call) and stops at the
/// first gene whose row count is below the best kept count so far. A gene
/// keeps at most its row count, so no unvisited gene can beat or tie the
/// pick, and the value is bit-identical to scoring all G genes at every
/// step: a cover2 solve (G = 300, h = 2) averages 61 and_popcount calls per
/// floor where scoring every gene makes 599. `row_counts` is the
/// evaluation's tumor_row_counts table; empty, the call counts the rows
/// itself. A non-empty table whose size is not genes() throws
/// std::invalid_argument.
///
/// No call allocates after a thread's first at a given size: the buffers
/// (sort order, prefix row, picks, own row counts) are thread-local, for
/// any `hits`. Under the AVX2 bitops backend, on tumor rows of 1-2 words,
/// the ANDs and counts run inline and their calls are credited through
/// credit_inline_calls, so thread_bitops_calls reads the same under every
/// backend.
double greedy_floor(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                    std::uint32_t hits, std::span<const std::uint64_t> row_counts = {});

/// Closed-form KernelStats of the modeled GPU kernel over threads
/// [begin, end). `tumor_words` / `normal_words` are the packed row widths.
/// With W = tumor_words + normal_words, d = hits - flat inner loops, and a
/// thread whose largest flat gene leaves R genes above it (m = C(R, d)
/// combinations):
///
///   flat == hits  one combination per thread, all h rows from global
///                 memory (opts ignored): (h-1)W word ops, hW global words,
///                 2h distinct rows.
///   no opts       (h-1)·m·W word ops, h·m·W global words.
///   prefetch_i    (h-1)·m·W word ops, (1 + (h-1)·m)·W global words, m·W
///                 local words (row i staged once per thread).
///   prefetch_j    the fixed rows fold once per thread and each inner prefix
///                 folds once: (flat-1 + P + m)·W word ops,
///                 (flat + P + m)·W global words, m·W local words, with
///                 P = Σ_{l=1}^{d-1} C(R-(d-l), l) inner prefixes.
///   rows          2·(flat + R) distinct rows per thread.
///
/// Threads with no work (m == 0) count by scheme; the modeled figures depend
/// on these counts, so tests/test_scheme_stats.cpp pins them with a frozen
/// reference table. A 1x scheme with d >= 2 still stages row i (the formulas
/// above with m = 0); otherwise such a thread counts 2·flat rows when
/// flat == 2 or d >= 2, and nothing at all in the remaining single-loop
/// schemes (1x1, 3x1 at 4 hits, 4x1 at 5 hits).
KernelStats scheme_stats(Scheme scheme, std::uint32_t genes, std::uint64_t begin,
                         std::uint64_t end, const MemOpts& opts, std::uint32_t tumor_words,
                         std::uint32_t normal_words);

}  // namespace multihit
