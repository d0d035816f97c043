#include "core/schemes.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>
#include <stdexcept>
#include <vector>

#include "bitmat/bitops.hpp"
#include "combinat/binomial.hpp"
#include "combinat/unrank.hpp"

namespace multihit {

namespace {

// C(n, k) with closed forms up to k = 5; beyond that the checked generic
// loop runs. Ranks are computed on every F tie, which is common on real data,
// so the closed forms (inlined into the tie path) matter. Each is exact
// whenever C(n, k) fits u64, and callers only ask for values bounded by
// C(G, hits), which check_scheme proved fits.
[[gnu::always_inline]] inline u64 choose(u64 n, std::uint32_t k) noexcept {
  switch (k) {
    case 0:
      return 1;
    case 1:
      return n;
    case 2:
      return triangular(n);
    case 3:
      return tetrahedral(n);
    case 4:
      return quartic(n);
    case 5:
      return quintic(n);
    default:
      return binomial(n, k);
  }
}

void check_scheme(Scheme scheme, std::uint32_t genes) {
  if (scheme.hits < 2 || scheme.hits > kMaxSchemeHits || scheme.flat < 1 ||
      scheme.flat > scheme.hits) {
    throw std::invalid_argument("scheme: need 2 <= hits <= " + std::to_string(kMaxSchemeHits) +
                                " and 1 <= flat <= hits, got hits = " +
                                std::to_string(scheme.hits) +
                                ", flat = " + std::to_string(scheme.flat));
  }
  // Ranks of h-gene combinations are u64; C(G, flat) sizes the thread space.
  if (!binomial_checked(genes, scheme.hits) || !binomial_checked(genes, scheme.flat)) {
    throw std::invalid_argument("scheme: C(G, h) overflows u64 at G = " + std::to_string(genes) +
                                ", h = " + std::to_string(scheme.hits));
  }
}

// Best-so-far tracker. F values are computed by the identical expression on
// every path, so exact == comparison on doubles is sound here, and the
// (F desc, rank asc) order makes every execution return the same winner.
// The rank is only computed when F ties or beats the incumbent.
class BestTracker {
 public:
  explicit BestTracker(const FContext& ctx) : ctx_(ctx) {}

  template <typename RankFn>
  void consider(std::uint64_t tp, std::uint64_t normal_hits, RankFn&& rank) noexcept {
    const double f = f_score(ctx_, tp, normal_hits);
    if (best_.valid) {
      if (f < best_.f) return;
      if (f == best_.f) {
        const std::uint64_t r = rank();
        if (r >= best_.combo_rank) return;
        best_.combo_rank = r;
        best_.tp = tp;
        best_.tn = ctx_.normal_total - normal_hits;
        return;
      }
    }
    best_.valid = true;
    best_.f = f;
    best_.combo_rank = rank();
    best_.tp = tp;
    best_.tn = ctx_.normal_total - normal_hits;
  }

  /// True when an F of at most `bound` cannot displace the incumbent: the
  /// comparison is strict, so a tie with the incumbent is never dominated.
  bool dominates(double bound) const noexcept { return best_.valid && bound < best_.f; }

  EvalResult result() const noexcept { return best_; }

 private:
  FContext ctx_;
  EvalResult best_;
};

}  // namespace

std::string scheme_name(Scheme scheme) {
  const std::uint32_t inner = scheme.hits > scheme.flat ? scheme.hits - scheme.flat : 1;
  return std::to_string(scheme.flat) + "x" + std::to_string(inner);
}

std::uint64_t scheme_threads(Scheme scheme, std::uint32_t genes) {
  check_scheme(scheme, genes);
  return choose(genes, scheme.flat);
}

std::uint64_t scheme_thread_work(Scheme scheme, std::uint32_t genes, std::uint64_t lambda) {
  check_scheme(scheme, genes);
  const std::uint32_t top = colex_top(lambda, scheme.flat);
  return choose(genes - 1 - top, scheme.hits - scheme.flat);
}

// Cache-line aligned: code-layout shifts from unrelated edits moved sweep time up to 15%.
__attribute__((aligned(64))) EvalResult evaluate_range(const BitMatrix& tumor,
                                                       const BitMatrix& normal,
                                                       const FContext& ctx, Scheme scheme,
                                                       std::uint64_t begin, std::uint64_t end,
                                                       double floor, KernelCounts* counts) {
  const std::uint32_t genes = tumor.genes();
  check_scheme(scheme, genes);
  assert(normal.genes() == genes);
  // λ past the thread space would unrank to genes past the matrix.
  if (begin < end && end > choose(genes, scheme.flat)) {
    throw std::invalid_argument("evaluate_range: threads [" + std::to_string(begin) + ", " +
                                std::to_string(end) + ") exceed the " + scheme_name(scheme) +
                                " space of G = " + std::to_string(genes));
  }
  const std::uint32_t h = scheme.hits;
  const std::uint32_t f = scheme.flat;
  const std::uint32_t d = h - f;  // inner loops
  const std::size_t wt = tumor.words_per_row();
  const std::size_t wn = normal.words_per_row();
  BestTracker best(ctx);
  std::uint64_t scored = 0;
  std::uint64_t pruned = 0;

  if (begin < end) {
    // Fold order: the flat genes top-down, then the inner genes ascending.
    // Slot s (0 <= s <= h-2) holds the AND of the rows of genes[0..s]; the
    // innermost gene is never folded, so every combination costs one
    // two-row and_popcount per matrix. Colex steps mostly move the smallest
    // flat gene, which sits last among the flat slots, so a step refolds
    // only the slots from the first changed gene on. The slots live in a
    // per-thread buffer that only ever grows, so no call allocates after a
    // thread's first at a given width.
    thread_local std::vector<std::uint64_t> scratch;
    const std::size_t words = (h - 1) * (wt + wn);
    if (scratch.size() < words) scratch.resize(words);
    const std::span<std::uint64_t> block(scratch.data(), words);
    std::array<std::span<std::uint64_t>, kMaxSchemeHits> tslot, nslot;
    for (std::uint32_t s = 0; s + 1 < h; ++s) {
      tslot[s] = block.subspan(s * wt, wt);
      nslot[s] = block.subspan((h - 1) * wt + s * wn, wn);
    }
    // The bound f_score(TP, 0) covers every extension only while F grows
    // with TP, i.e. for α >= 0.
    const bool prune = ctx.params.alpha >= 0.0;
    std::array<std::uint32_t, kMaxSchemeHits> genes_at{};  // by fold slot
    // Folds slots [from, to) shallowest first. Returns the first slot whose
    // bound is strictly below max(floor, incumbent F) — its normal half left
    // unfolded, so callers refold from it — or `to` when none is cut.
    const auto fold = [&](std::uint32_t from, std::uint32_t to) -> std::uint32_t {
      for (std::uint32_t s = from; s < to; ++s) {
        const auto trow = tumor.row(genes_at[s]);
        if (s == 0) {
          std::copy(trow.begin(), trow.end(), tslot[0].begin());
        } else {
          and_rows(tslot[s], tslot[s - 1], trow);
        }
        if (prune) {
          const double bound = f_score(ctx, popcount_row(tslot[s]), 0);
          if (bound < floor || best.dominates(bound)) return s;
        }
        const auto nrow = normal.row(genes_at[s]);
        if (s == 0) {
          std::copy(nrow.begin(), nrow.end(), nslot[0].begin());
        } else {
          and_rows(nslot[s], nslot[s - 1], nrow);
        }
      }
      return to;
    };

    // c: the thread's flat genes ascending (colex digits of λ).
    // x: x[0] = the top flat gene, x[1..d-1] the inner prefix genes.
    std::array<std::uint32_t, kMaxSchemeHits> c{}, x{};
    unrank_combination(begin, std::span<std::uint32_t>(c.data(), f));
    for (std::uint32_t k = 0; k < f; ++k) genes_at[f - 1 - k] = c[k];
    std::uint32_t stale = 0;  // first flat slot whose gene changed since its fold
    // The slots folded per thread: all h-1 when every loop is flat (the
    // smallest flat gene is then the innermost), else the f flat genes.
    const std::uint32_t flat_slots = d == 0 ? h - 1 : f;

    for (std::uint64_t lambda = begin; lambda < end; ++lambda) {
      if (d == 0 || genes - 1 - c[f - 1] >= d) {
        const std::uint32_t cut = fold(stale, flat_slots);
        stale = cut;
        if (cut < flat_slots) {
          // Every thread sharing genes_at[0..cut] is dominated: jump the
          // colex digits below the cut slot's gene to their last values
          // (the run's last λ) and count the run's work up to `end`.
          const std::uint32_t low = f - 1 - cut;
          std::uint64_t run_last = lambda;
          for (std::uint32_t j = 0; j < low; ++j) {
            const std::uint32_t top = c[low] - low + j;
            run_last += choose(top, j + 1) - choose(c[j], j + 1);
            c[j] = top;
            genes_at[f - 1 - j] = top;
          }
          const std::uint64_t work = d == 0 ? 1 : choose(genes - 1 - c[f - 1], d);
          pruned += (std::min(run_last, end - 1) - lambda + 1) * work;
          lambda = run_last;
        } else if (d == 0) {
          // One combination per thread; its smallest gene is the innermost.
          const std::uint32_t last = c[0];
          const std::uint64_t tp = and_popcount(tslot[h - 2], tumor.row(last));
          const std::uint64_t nh = and_popcount(nslot[h - 2], normal.row(last));
          best.consider(tp, nh, [&] { return lambda; });
          ++scored;
        } else {
          x[0] = c[f - 1];
          for (std::uint32_t l = 1; l < d; ++l) genes_at[f - 1 + l] = x[l] = x[0] + l;
          std::uint32_t inner_stale = f;  // first inner slot to refold
          for (;;) {
            const std::uint32_t inner_cut = fold(inner_stale, h - 1);
            // l: the deepest inner digit whose subtree is finished.
            std::uint32_t l = d - 1;
            if (inner_cut < h - 1) {
              l = inner_cut - (f - 1);
              pruned += choose(genes - 1 - x[l], d - l);
            } else {
              const std::span<const std::uint64_t> tpre = tslot[h - 2];
              const std::span<const std::uint64_t> npre = nslot[h - 2];
              for (std::uint32_t last = x[d - 1] + 1; last < genes; ++last) {
                const std::uint64_t tp = and_popcount(tpre, tumor.row(last));
                const std::uint64_t nh = and_popcount(npre, normal.row(last));
                // Flat genes are the f smallest, so their colex digits sum to λ.
                best.consider(tp, nh, [&] {
                  std::uint64_t rank = lambda + choose(last, h);
                  for (std::uint32_t k = 1; k < d; ++k) rank += choose(x[k], f + k);
                  return rank;
                });
              }
              scored += genes - 1 - x[d - 1];
            }
            // Lexicographic successor of the inner prefix, x[l] <= G-1-(d-l),
            // from digit l (the digits below a cut digit are skipped whole).
            while (l >= 1 && x[l] == genes - 1 - (d - l)) --l;
            if (l == 0) break;
            ++x[l];
            for (std::uint32_t k = l + 1; k < d; ++k) x[k] = x[k - 1] + 1;
            for (std::uint32_t k = l; k < d; ++k) genes_at[f - 1 + k] = x[k];
            inner_stale = f - 1 + l;
          }
        }
      }

      // Colex successor of the flat genes: bump the lowest digit that can
      // move, reset the ones below it.
      std::uint32_t k = 0;
      while (k + 1 < f && c[k] + 1 == c[k + 1]) ++k;
      ++c[k];
      for (std::uint32_t j = 0; j < k; ++j) c[j] = j;
      for (std::uint32_t j = 0; j <= k; ++j) genes_at[f - 1 - j] = c[j];
      stale = std::min(stale, f - 1 - k);
    }
  }

  if (counts != nullptr) {
    counts->combinations += scored + pruned;
    counts->pruned += pruned;
  }
  return best.result();
}

double greedy_floor(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                    std::uint32_t hits) {
  const std::uint32_t genes = tumor.genes();
  if (hits == 0 || genes < hits) return kNoFloor;
  std::vector<std::uint64_t> prefix(tumor.words_per_row(), ~std::uint64_t{0});
  std::vector<std::uint32_t> combo;
  std::uint64_t tp = 0;
  for (std::uint32_t step = 0; step < hits; ++step) {
    std::uint32_t pick = genes;
    for (std::uint32_t g = 0; g < genes; ++g) {
      if (std::find(combo.begin(), combo.end(), g) != combo.end()) continue;
      const std::uint64_t kept = and_popcount(prefix, tumor.row(g));
      if (pick == genes || kept > tp) {
        pick = g;
        tp = kept;
      }
    }
    combo.push_back(pick);
    and_rows(prefix, prefix, tumor.row(pick));
  }
  return f_score(ctx, tp, normal.intersect_count(combo));
}

KernelStats scheme_stats(Scheme scheme, std::uint32_t genes, std::uint64_t begin,
                         std::uint64_t end, const MemOpts& opts, std::uint32_t tumor_words,
                         std::uint32_t normal_words) {
  check_scheme(scheme, genes);
  KernelStats stats;
  if (begin >= end) return stats;
  const std::uint64_t W = static_cast<std::uint64_t>(tumor_words) + normal_words;
  const std::uint32_t h = scheme.hits;
  const std::uint32_t f = scheme.flat;
  const std::uint32_t d = h - f;

  if (d == 0) {
    const std::uint64_t n = end - begin;
    stats.combinations = n;
    stats.word_ops = n * (h - 1) * W;
    stats.global_words = n * h * W;
    stats.distinct_rows = n * 2 * h;
    return stats;
  }

  // Threads sharing their top flat gene t form the level
  // [C(t, f), C(t+1, f)), all with R = G-1-t genes left above them.
  const std::uint32_t t_lo = colex_top(begin, f);
  const std::uint32_t t_hi = colex_top(end - 1, f);
  for (std::uint32_t t = t_lo; t <= t_hi; ++t) {
    const std::uint64_t n =
        std::min(end, choose(t + 1, f)) - std::max(begin, choose(t, f));
    const std::uint64_t R = genes - 1 - t;
    const std::uint64_t m = choose(R, d);
    if (m == 0 && !(f == 1 && d >= 2)) {
      if (f == 2 || d >= 2) stats.distinct_rows += n * 2 * f;
      continue;
    }
    stats.combinations += n * m;
    stats.distinct_rows += n * 2 * (f + R);
    if (opts.prefetch_j) {
      std::uint64_t prefixes = 0;
      for (std::uint32_t l = 1; l < d; ++l) {
        if (R + l >= d) prefixes += choose(R - (d - l), l);
      }
      stats.word_ops += n * (f - 1 + prefixes + m) * W;
      stats.global_words += n * (f + prefixes + m) * W;
      stats.local_words += n * m * W;
    } else if (opts.prefetch_i) {
      stats.word_ops += n * (h - 1) * m * W;
      stats.global_words += n * (1 + (h - 1) * m) * W;
      stats.local_words += n * m * W;
    } else {
      stats.word_ops += n * (h - 1) * m * W;
      stats.global_words += n * h * m * W;
    }
  }
  return stats;
}

}  // namespace multihit
