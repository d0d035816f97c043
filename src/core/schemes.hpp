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
// F <= f_score(TP(P), 0), and a prefix whose bound is strictly below the
// best F seen so far (or below a caller-supplied floor) is never descended.
//
// The kernel only scores: besides the winner it reports two counts,
// combinations visited and pruned (KernelCounts). Its fold scratch is a
// per-thread buffer, (h-1)(wt+wn) words, that grows once and is reused.
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

#include <cstdint>
#include <limits>
#include <string>

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

/// The `floor` argument of evaluate_range that prunes against the range's
/// own incumbent only.
inline constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

/// maxF kernel over threads [begin, end) of `scheme`. Both matrices must have
/// identical gene counts; throws std::invalid_argument like scheme_threads,
/// or when a non-empty range ends past scheme_threads().
/// `counts`, when non-null, accumulates the combinations the range covers
/// (scored plus pruned) and, of those, the ones under cut prefixes.
/// A prefix is cut when its bound is strictly below max(floor, the range's
/// best F so far), so ties are always scored. Without a floor the result is
/// the exact best of the range; with one it is exact whenever that best is
/// >= floor, which the whole space's argmax always is when `floor` is the F
/// of a combination in it (see greedy_floor).
EvalResult evaluate_range(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                          Scheme scheme, std::uint64_t begin, std::uint64_t end,
                          double floor = kNoFloor, KernelCounts* counts = nullptr);

/// The exact F of one h-gene combination built greedily: each step adds the
/// gene keeping the most tumor TP (ties to the lowest index). It is a lower
/// bound on the space's best F, computed by the kernel's own expression, so
/// it is a sound `floor` for evaluate_range. kNoFloor when genes < hits.
double greedy_floor(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                    std::uint32_t hits);

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
