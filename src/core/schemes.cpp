#include "core/schemes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "bitmat/bitops.hpp"
#include "combinat/binomial.hpp"
#include "combinat/unrank.hpp"

namespace multihit {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

// A given row-count table must have one count per gene; empty means none.
void check_row_counts(const char* who, std::span<const std::uint64_t> row_counts,
                      std::uint32_t genes) {
  if (!row_counts.empty() && row_counts.size() != genes) {
    throw std::invalid_argument(std::string(who) + ": row-count table has " +
                                std::to_string(row_counts.size()) + " entries for " +
                                std::to_string(genes) + " genes");
  }
}

// The first thread of the zero-work tail, C(G - d, f): from it on the top
// flat gene leaves fewer than d = hits - flat genes above it, so the thread
// owns no combination. The top flat gene never decreases along λ, so the
// tail runs to the end of the space; with d = 0 it is empty.
std::uint64_t tail_begin(Scheme scheme, std::uint32_t genes) noexcept {
  const std::uint32_t d = scheme.hits - scheme.flat;
  if (d == 0) return choose(genes, scheme.flat);
  return genes >= d ? choose(genes - d, scheme.flat) : 0;
}

// scheme_range_work without the checks: Σ C(G-1-top, d) over the levels
// of threads sharing their top flat gene, up to the zero-work tail.
std::uint64_t range_work(Scheme scheme, std::uint32_t genes, std::uint64_t begin,
                         std::uint64_t end) noexcept {
  const std::uint32_t f = scheme.flat;
  const std::uint32_t d = scheme.hits - f;
  if (d == 0) return begin < end ? end - begin : 0;
  const std::uint64_t tail = tail_begin(scheme, genes);
  end = std::min(end, tail);
  if (begin >= end) return 0;
  // Every h-combination belongs to exactly one thread.
  if (begin == 0 && end == tail) return choose(genes, scheme.hits);
  // One thread per level: Σ_{t in [begin, end)} C(G-1-t, d), hockey stick.
  if (f == 1) return choose(genes - begin, d + 1) - choose(genes - end, d + 1);
  std::uint64_t work = 0;
  const std::uint32_t t_hi = colex_top(end - 1, f);
  for (std::uint32_t t = colex_top(begin, f); t <= t_hi; ++t) {
    const std::uint64_t n = std::min(end, choose(t + 1, f)) - std::max(begin, choose(t, f));
    work += n * choose(genes - 1 - t, d);
  }
  return work;
}

// Best-so-far tracker under (F desc, rank asc), and the two integer TP
// thresholds the kernel cuts on. F values are computed by the identical
// expression on every path, so exact == comparison on doubles is sound here,
// and the order makes every execution return the same winner. The rank is
// only computed when F ties or beats the incumbent.
//
// A prefix (or leaf) whose tumor count is TP bounds every extension at
// f_score(TP, 0) while F grows with TP (α >= 0). With B(TP) that bound:
//   need      the smallest TP with B(TP) not below max(floor, incumbent F);
//             below it an extension can neither reach the floor nor beat
//             the incumbent
//   need_win  the smallest TP with B(TP) strictly above the incumbent's F,
//             and at least need; in [need, need_win) B(TP) equals the
//             incumbent's F, so an extension only wins a tie on rank.
// B is monotone under IEEE rounding, so both are found by bisecting the
// kernel's own f_score, and `count < need` is exactly the per-slot test
// `B < floor || B < incumbent F` — NaN and edge cases included. They change
// only with the incumbent's F. With α < 0 both are 0: nothing is cut.
class BestTracker {
 public:
  BestTracker(const FContext& ctx, double floor, std::uint64_t max_count)
      : ctx_(ctx), floor_(floor), max_count_(max_count) {
    retarget();
  }

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
    retarget();
  }

  std::uint64_t need() const noexcept { return need_; }
  std::uint64_t need_win() const noexcept { return need_win_; }

  /// True when no combination of rank >= `rho` wins a tie with the
  /// incumbent. Only asked in the tie band, which is empty without one.
  bool outranks(std::uint64_t rho) const noexcept { return rho > best_.combo_rank; }

  /// True when combinations whose F is at most `bound` can neither reach
  /// the floor nor beat the incumbent; `rho()`, a lower bound on their
  /// ranks, is only asked on a tie with the incumbent's F.
  template <typename RhoFn>
  bool cuts(double bound, RhoFn&& rho) const noexcept {
    if (bound < floor_) return true;
    if (!best_.valid) return false;
    return bound < best_.f || (bound == best_.f && rho() > best_.combo_rank);
  }

  EvalResult result() const noexcept { return best_; }

 private:
  // The smallest TP in [0, max_count_] whose bound satisfies `keep`, or
  // max_count_ + 1 when none does; `keep` is monotone in the bound.
  template <typename Keep>
  std::uint64_t first(Keep keep) const noexcept {
    std::uint64_t lo = 0;
    std::uint64_t hi = max_count_ + 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (keep(f_score(ctx_, mid, 0))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  void retarget() noexcept {
    if (!(ctx_.params.alpha >= 0.0)) {
      need_ = need_win_ = 0;
      return;
    }
    need_ = first([&](double bound) {
      return !(bound < floor_ || (best_.valid && bound < best_.f));
    });
    need_win_ = best_.valid
                    ? std::max(need_, first([&](double bound) { return !(bound <= best_.f); }))
                    : need_;
  }

  FContext ctx_;
  double floor_;
  std::uint64_t max_count_;
  EvalResult best_;
  std::uint64_t need_ = 0;
  std::uint64_t need_win_ = 0;
};

#if defined(__x86_64__) || defined(__i386__)
#define MULTIHIT_TARGET_POPCNT __attribute__((target("popcnt")))
#else
#define MULTIHIT_TARGET_POPCNT
#endif

// A row's popcount with four accumulators, which keep four popcounts in
// flight; one dependency chain measured about twice as slow on 25-word rows.
// Inlined into each compiled body below, so it runs as POPCNT in theirs.
[[gnu::always_inline]] inline std::uint64_t count_words(
    std::span<const std::uint64_t> row) noexcept {
  std::uint64_t n[4] = {0, 0, 0, 0};
  std::size_t w = 0;
  for (; w + 4 <= row.size(); w += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      n[k] += static_cast<std::uint64_t>(std::popcount(row[w + k]));
    }
  }
  for (; w < row.size(); ++w) n[0] += static_cast<std::uint64_t>(std::popcount(row[w]));
  return n[0] + n[1] + n[2] + n[3];
}

// The kernel's row operations for one row-width class. kInline (both
// matrices' rows are 1-2 words): AND and count in place, tallying the calls
// the dispatched kernels would have counted so the range can credit them
// once; otherwise the dispatched and_popcount / and_rows. The one-row count
// of the prefix bound is always inline, with four accumulators on wider
// rows: std::popcount is a single instruction in the target("popcnt")
// bodies.
template <bool kInline>
struct RowOps {
  BitopsCallCounts calls;

  [[gnu::always_inline]] std::uint64_t and_popcount(std::span<const std::uint64_t> a,
                                                    std::span<const std::uint64_t> b) noexcept {
    if constexpr (kInline) {
      MULTIHIT_BITOPS_CHECK("and_popcount/2", a.size(), b.size());
      ++calls.and2;
      std::uint64_t n = static_cast<std::uint64_t>(std::popcount(a[0] & b[0]));
      if (a.size() > 1) n += static_cast<std::uint64_t>(std::popcount(a[1] & b[1]));
      return n;
    } else {
      return multihit::and_popcount(a, b);
    }
  }

  [[gnu::always_inline]] void and_rows(std::span<std::uint64_t> dst,
                                       std::span<const std::uint64_t> a,
                                       std::span<const std::uint64_t> b) noexcept {
    if constexpr (kInline) {
      MULTIHIT_BITOPS_CHECK("and_rows", dst.size(), a.size(), b.size());
      ++calls.and_rows;
      dst[0] = a[0] & b[0];
      if (dst.size() > 1) dst[1] = a[1] & b[1];
    } else {
      multihit::and_rows(dst, a, b);
    }
  }

  [[gnu::always_inline]] static std::uint64_t count(std::span<const std::uint64_t> row) noexcept {
    if constexpr (kInline) {
      std::uint64_t n = static_cast<std::uint64_t>(std::popcount(row[0]));
      if (row.size() > 1) n += static_cast<std::uint64_t>(std::popcount(row[1]));
      return n;
    } else {
      return count_words(row);
    }
  }
};

// The kernel body evaluate_range runs once its arguments are checked and its
// range is non-empty. Always inlined into the entry points below, so each
// one compiles the whole body under its own target.
template <bool kInline>
[[gnu::always_inline]] inline EvalResult scan(const BitMatrix& tumor, const BitMatrix& normal,
                                              const FContext& ctx, Scheme scheme,
                                              std::uint64_t begin, std::uint64_t end,
                                              double floor, KernelCounts* counts,
                                              CarriedBounds* carried,
                                              std::span<const std::uint64_t> row_counts) {
  const std::uint32_t genes = tumor.genes();
  const std::uint32_t h = scheme.hits;
  const std::uint32_t f = scheme.flat;
  const std::uint32_t d = h - f;  // inner loops
  const std::size_t wt = tumor.words_per_row();
  const std::size_t wn = normal.words_per_row();
  const std::uint64_t tail = tail_begin(scheme, genes);  // threads from here own nothing
  RowOps<kInline> ops;
  BestTracker best(ctx, floor, 64 * wt);
  std::uint64_t reached = 0;     // combinations that reach the innermost gene
  std::uint64_t cut_row = 0;     // reached, cut on the innermost gene's row count
  std::uint64_t cut_leaf = 0;    // reached, cut on their own tumor count
  std::uint64_t skipped = 0;     // threads skipped on their carried bound

  // Fold order: the flat genes top-down, then the inner genes ascending.
  // Slot s (0 <= s <= h-2) holds the AND of the rows of genes[0..s]; the
  // innermost gene is never folded, so every combination costs at most one
  // two-row and_popcount per matrix. Colex steps mostly move the smallest
  // flat gene, which sits last among the flat slots, so a step refolds only
  // the slots from the first changed gene on. The slots live in a per-thread
  // buffer that only ever grows, so no call allocates after a thread's first
  // at a given width.
  thread_local std::vector<std::uint64_t> scratch;
  const std::size_t words = (h - 1) * (wt + wn);
  if (scratch.size() < words) scratch.resize(words);
  const std::span<std::uint64_t> block(scratch.data(), words);
  std::array<std::span<std::uint64_t>, kMaxSchemeHits> tslot, nslot;
  for (std::uint32_t s = 0; s + 1 < h; ++s) {
    tslot[s] = block.subspan(s * wt, wt);
    nslot[s] = block.subspan((h - 1) * wt + s * wn, wn);
  }
  const std::span<const std::uint64_t> tpre = tslot[h - 2];
  const std::span<const std::uint64_t> npre = nslot[h - 2];

  // Row-count bound: a combination's TP is at most its innermost gene's
  // tumor row count. On rows of 3+ words a leaf whose row count is below
  // need is skipped before its AND, reading the evaluation's table (counted
  // here when the caller gave none). Decided by row width alone, so every
  // body cuts the same leaves; on narrower rows a per-range table cost more
  // than the ANDs it saved, and the cut stays off there.
  const bool row_bound = wt >= 3;
  thread_local std::vector<std::uint64_t> own_counts;
  if (row_bound && row_counts.empty()) {
    own_counts.resize(genes);
    tumor_row_counts(tumor, own_counts);
    row_counts = own_counts;
  }

  // Carried bounds (CarriedBounds). evaluate_range passes them only for
  // Scheme{h, h-1}, so d == 1 and a thread's combinations are its leaves.
  const bool lazy = carried != nullptr;
  const bool warm = lazy && carried->warm();
  const unsigned block_shift = lazy ? carried->block_shift() : 0;  // log2 threads per block
  const std::uint64_t block_span = std::uint64_t{1} << block_shift;
  const double denom = static_cast<double>(ctx.tumor_total + ctx.normal_total);
  std::uint64_t next_block = lazy ? begin : end;  // the next λ to test its block at
  std::uint64_t open_block = 0;  // the block the range last noted threads of
  bool open = false;
  double acc = -kInf;  // the max bound noted in the open block

  // Leaving the open block stores its bound: the lower of its old bound and
  // the max noted in it, where every thread of it was noted or skipped on a
  // bound that is itself noted.
  const auto flush = [&]() __attribute__((always_inline)) {
    if (open) carried->lower_block(open_block, acc);
    open = false;
  };
  const auto enter = [&](std::uint64_t b) __attribute__((always_inline)) {
    if (open && open_block == b) return;
    flush();
    open_block = b;
    open = true;
    acc = -kInf;
  };
  // Records that numerator bound v holds for thread t.
  const auto note_thread = [&](std::uint64_t t, double v) __attribute__((always_inline)) {
    enter(t >> block_shift);
    acc = std::max(acc, v);
    carried->lower_thread(t, v);
  };
  // Records that v bounds threads [first, last] of a cut run: the blocks
  // it covers whole take v; 2-hit threads are runs of one.
  const auto note_run = [&](std::uint64_t first, std::uint64_t last,
                            double v) __attribute__((always_inline)) {
    if (first == last) return note_thread(first, v);
    const std::uint64_t b0 = first >> block_shift;
    const std::uint64_t b1 = last >> block_shift;
    enter(b0);
    acc = std::max(acc, v);
    if (b1 == b0) return;
    for (std::uint64_t b = b0 + 1; b < b1; ++b) carried->lower_block(b, v);
    enter(b1);
    acc = v;
  };

  // c: the thread's flat genes ascending (colex digits of λ).
  // x: x[0] = the top flat gene, x[1..d-1] the inner prefix genes.
  std::array<std::uint32_t, kMaxSchemeHits> c{}, x{};
  std::array<std::uint32_t, kMaxSchemeHits> genes_at{};  // by fold slot
  std::uint64_t lambda = begin;

  // ρ: a lower bound on the rank of every combination a cut of slot s
  // skips. A combination's rank is λ + Σ_{k=1}^{d-1} C(x_k, f+k) +
  // C(last, h). The cut skips threads λ' >= λ (a flat slot) or part of
  // thread λ (an inner slot), and every skipped innermost gene is at least
  // top + above, with top the largest gene fixed through slot s and above
  // the genes still to add. With d = 0 a thread's one combination has rank
  // λ' itself; the incumbent came from an earlier thread, so there every
  // tie is cut.
  const auto rho = [&](std::uint32_t s) __attribute__((always_inline)) -> std::uint64_t {
    if (d == 0) return lambda;
    const std::uint32_t top = s < f ? genes_at[0] : genes_at[s];
    const std::uint32_t above = h - 1 - std::max(s, f - 1);
    return lambda + choose(top + above, h);
  };

  std::uint64_t slot_count = 0;  // tumor count of the slot fold() folded last

  // Folds slots [from, to) shallowest first. Returns the first slot cut —
  // its tumor count below need, or in the tie band with ρ ranking after the
  // incumbent — with its normal half left unfolded, so callers refold from
  // it; or `to` when none is cut. Always inlined: an out-of-line copy would
  // be shared by every target's body.
  const auto fold = [&](std::uint32_t from,
                        std::uint32_t to) __attribute__((always_inline)) -> std::uint32_t {
    for (std::uint32_t s = from; s < to; ++s) {
      const auto trow = tumor.row(genes_at[s]);
      if (s == 0) {
        std::copy(trow.begin(), trow.end(), tslot[0].begin());
      } else {
        ops.and_rows(tslot[s], tslot[s - 1], trow);
      }
      // Slot 0 holds one gene's row: its count is in the evaluation's table.
      const std::uint64_t tp =
          s == 0 && !row_counts.empty() ? row_counts[genes_at[0]] : ops.count(tslot[s]);
      slot_count = tp;
      if (tp < best.need_win() && (tp < best.need() || best.outranks(rho(s)))) return s;
      const auto nrow = normal.row(genes_at[s]);
      if (s == 0) {
        std::copy(nrow.begin(), nrow.end(), nslot[0].begin());
      } else {
        ops.and_rows(nslot[s], nslot[s - 1], nrow);
      }
    }
    return to;
  };

  // Scores the folded prefix plus `last` unless a leaf cut drops it: its
  // row count below need (no AND), or its tumor count below need or in the
  // tie band with `low()`, a lower bound on its rank, after the incumbent's
  // (no normal count).
  // The thread's numerator bound so far: its largest scored numerator,
  // and one past the largest count a leaf was cut on (0: none was).
  double scored_max = -kInf;
  std::uint64_t cut_max = 0;
  const auto leaf = [&](std::uint32_t last, auto&& low,
                        auto&& rank) __attribute__((always_inline)) {
    if (row_bound && row_counts[last] < best.need()) {
      ++cut_row;
      cut_max = std::max(cut_max, row_counts[last] + 1);
      return;
    }
    const std::uint64_t tp = ops.and_popcount(tpre, tumor.row(last));
    if (tp < best.need_win() && (tp < best.need() || best.outranks(low()))) {
      ++cut_leaf;
      cut_max = std::max(cut_max, tp + 1);
      return;
    }
    const std::uint64_t normal_hits = ops.and_popcount(npre, normal.row(last));
    if (lazy) scored_max = std::max(scored_max, f_numerator(ctx, tp, normal_hits));
    best.consider(tp, normal_hits, rank);
  };

  std::uint32_t stale = 0;  // first flat slot whose gene changed since its fold
  bool positioned = false;  // c and genes_at hold λ's digits
  // The slots folded per thread: all h-1 when every loop is flat (the
  // smallest flat gene is then the innermost), else the f flat genes.
  const std::uint32_t flat_slots = d == 0 ? h - 1 : f;
  // Warm, with block bounds only and runs of more than one thread, a thread
  // cut on its bound takes the rest of its smallest-digit run with it.
  const bool run_cut = warm && f >= 2 && !carried->per_thread();

  // Colex successor of the flat genes: bump the lowest digit that can
  // move, reset the ones below it.
  const auto advance = [&]() __attribute__((always_inline)) {
    std::uint32_t k = 0;
    while (k + 1 < f && c[k] + 1 == c[k + 1]) ++k;
    ++c[k];
    for (std::uint32_t j = 0; j < k; ++j) c[j] = j;
    for (std::uint32_t j = 0; j <= k; ++j) genes_at[f - 1 - j] = c[j];
    stale = std::min(stale, f - 1 - k);
    ++lambda;
  };

  while (lambda < end) {
    if (lazy && lambda >= next_block) {
      // Entering a block (or the rest of one after a cut run): skip what is
      // left of it in the range when its bound cannot win.
      std::uint64_t b = lambda >> block_shift;
      next_block = std::min(end, (b + 1) * block_span);
      const auto cut_block = [&] {
        return best.cuts(carried->block_bound(b) / denom, [] { return std::uint64_t{0}; });
      };
      if (warm && cut_block()) {
        // Skip the run of blocks that cannot win, then reposition once.
        // Their combinations count as pruned at the end of the range.
        if (open && open_block == b) acc = std::max(acc, carried->block_bound(b));
        do {
          skipped += next_block - lambda;
          lambda = next_block;
          ++b;
          next_block = std::min(end, (b + 1) * block_span);
        } while (lambda < end && cut_block());
        positioned = false;
        continue;
      }
    }
    if (lambda >= tail) {
      // The zero-work tail: no thread from here to the end owns a
      // combination. Cold, nothing is left to do. With carried bounds each
      // block still opens, so its bound is stored, and the jump lands on
      // the next block boundary, whose warm block test runs and counts the
      // threads it skips as the per-thread walk did.
      if (!lazy) break;
      enter(lambda >> block_shift);
      lambda = next_block;
      positioned = false;
      continue;
    }
    if (!positioned) {
      unrank_combination(lambda, std::span<std::uint32_t>(c.data(), f));
      for (std::uint32_t k = 0; k < f; ++k) genes_at[f - 1 - k] = c[k];
      stale = 0;
      positioned = true;
    }
    // Warm, the thread is tested on its bound once the slots a cut run
    // would share are folded, before the last flat slot, whose cut skips
    // this thread alone. Its combinations rank at least λ + C(top + 1, h)
    // (d == 1).
    const std::uint32_t shared = warm ? f - 1 : flat_slots;
    std::uint32_t cut = fold(stale, shared);
    if (cut == shared && shared < flat_slots) {
      const double bound = carried->thread_bound(lambda);
      if (best.cuts(bound / denom, [&] { return lambda + choose(c[f - 1] + 1, h); })) {
        enter(lambda >> block_shift);
        acc = std::max(acc, bound);
        // The threads this test cuts. With run_cut, the rest of the
        // smallest-digit run, c[0] up to c[1] - 1, within the open block:
        // they share the folded prefix, the block's bound and the top
        // gene, and rank later, so the test would cut each of them in
        // turn. The walk lands on the last of them, then steps once.
        // Marked unlikely to keep it out of line: 2-hit thread cuts never
        // take it, and the inline forms read sweep4 or cover2 1-2.5%
        // slower in paired runs.
        std::uint64_t n = 1;
        if (run_cut) [[unlikely]] {
          n = std::min<std::uint64_t>(c[1] - c[0], next_block - lambda);
          c[0] += static_cast<std::uint32_t>(n - 1);
          genes_at[f - 1] = c[0];
          lambda += n - 1;
        }
        skipped += n;
        stale = shared;
        advance();
        continue;
      }
      cut = fold(shared, flat_slots);
    }
    stale = cut;
    if (cut < flat_slots) {
      // Every thread sharing genes_at[0..cut] is cut: jump the colex
      // digits below the cut slot's gene to their last values (the run's
      // last λ).
      const std::uint32_t low = f - 1 - cut;
      std::uint64_t run_last = lambda;
      for (std::uint32_t j = 0; j < low; ++j) {
        const std::uint32_t top = c[low] - low + j;
        run_last += choose(top, j + 1) - choose(c[j], j + 1);
        c[j] = top;
        genes_at[f - 1 - j] = top;
      }
      // Every combination of the run extends the cut prefix.
      if (lazy) note_run(lambda, std::min(run_last, end - 1), f_numerator(ctx, slot_count, 0));
      lambda = run_last;
    } else if (d == 0) {
      // One combination per thread, of rank λ; its smallest gene is the
      // innermost.
      ++reached;
      leaf(c[0], [&] { return lambda; }, [&] { return lambda; });
    } else {
      x[0] = c[f - 1];
      for (std::uint32_t l = 1; l < d; ++l) genes_at[f - 1 + l] = x[l] = x[0] + l;
      std::uint32_t inner_stale = f;  // first inner slot to refold
      scored_max = -kInf;
      cut_max = 0;
      for (;;) {
        const std::uint32_t inner_cut = fold(inner_stale, h - 1);
        // l: the deepest inner digit whose subtree is finished.
        std::uint32_t l = d - 1;
        if (inner_cut < h - 1) {
          l = inner_cut - (f - 1);
        } else {
          for (std::uint32_t last = x[d - 1] + 1; last < genes; ++last) {
            // Flat genes are the f smallest, so their colex digits sum to λ.
            leaf(last, [&] { return lambda + choose(last, h); }, [&] {
              std::uint64_t rank = lambda + choose(last, h);
              for (std::uint32_t k = 1; k < d; ++k) rank += choose(x[k], f + k);
              return rank;
            });
          }
          reached += genes - 1 - x[d - 1];
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
      if (lazy) {
        // No leaf covers more than the prefix, whose count bounds a row
        // count the tumor AND was skipped on.
        const double cut_bound =
            cut_max == 0 ? -kInf : f_numerator(ctx, std::min(cut_max - 1, slot_count), 0);
        note_thread(lambda, std::max(scored_max, cut_bound));
      }
    }

    advance();
  }
  if (lazy) flush();

  if constexpr (kInline) credit_inline_calls(ops.calls);
  // Every combination the scan did not reach was pruned: under a cut
  // prefix or on its thread's carried bound.
  if (counts != nullptr) {
    const std::uint64_t covered = range_work(scheme, genes, begin, end);
    counts->combinations += covered;
    counts->pruned += covered - reached + cut_row;
    counts->leaf_cut += cut_leaf;
    counts->threads_skipped += skipped;
  }
  return best.result();
}

// The three compiled bodies. Cache-line aligned: code-layout shifts from
// unrelated edits moved sweep time up to 15%.

// POPCNT, rows of 1-2 words scored and folded inline.
__attribute__((aligned(64))) MULTIHIT_TARGET_POPCNT EvalResult
scan_popcnt_inline(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                   Scheme scheme, std::uint64_t begin, std::uint64_t end, double floor,
                   KernelCounts* counts, CarriedBounds* carried,
                   std::span<const std::uint64_t> row_counts) {
  return scan<true>(tumor, normal, ctx, scheme, begin, end, floor, counts, carried, row_counts);
}

// POPCNT, any other width (0 or 3+ words, or a mix) through the dispatched
// kernels.
__attribute__((aligned(64))) MULTIHIT_TARGET_POPCNT EvalResult
scan_popcnt(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx, Scheme scheme,
            std::uint64_t begin, std::uint64_t end, double floor, KernelCounts* counts,
            CarriedBounds* carried, std::span<const std::uint64_t> row_counts) {
  return scan<false>(tumor, normal, ctx, scheme, begin, end, floor, counts, carried, row_counts);
}

// Baseline target, every width through the dispatched kernels: the portable
// body the scalar backend runs.
__attribute__((aligned(64))) EvalResult scan_portable(const BitMatrix& tumor,
                                                      const BitMatrix& normal,
                                                      const FContext& ctx, Scheme scheme,
                                                      std::uint64_t begin, std::uint64_t end,
                                                      double floor, KernelCounts* counts,
                                                      CarriedBounds* carried,
                                                      std::span<const std::uint64_t> row_counts) {
  return scan<false>(tumor, normal, ctx, scheme, begin, end, floor, counts, carried, row_counts);
}

// tumor_row_counts' loop, compiled for POPCNT and for the baseline target
// like the scan bodies above.
[[gnu::always_inline]] inline void count_rows(const BitMatrix& tumor,
                                              std::span<std::uint64_t> counts) {
  for (std::uint32_t g = 0; g < tumor.genes(); ++g) counts[g] = count_words(tumor.row(g));
}

MULTIHIT_TARGET_POPCNT void count_rows_popcnt(const BitMatrix& tumor,
                                              std::span<std::uint64_t> counts) {
  count_rows(tumor, counts);
}

void count_rows_portable(const BitMatrix& tumor, std::span<std::uint64_t> counts) {
  count_rows(tumor, counts);
}

// greedy_floor's working buffers: kept per thread, like the kernel's fold
// scratch, so no floor allocates after a thread's first at a given size.
struct FloorScratch {
  std::vector<std::uint64_t> counts;  // the row-count table, when none is given
  std::vector<std::uint32_t> start;   // counting-sort bucket starts
  std::vector<std::uint32_t> order;   // genes by row count descending
  std::vector<std::uint64_t> prefix;  // AND of the picked genes' tumor rows
  std::vector<std::uint32_t> combo;   // the picked genes
};

// greedy_floor once its row-count table is at hand, for one row-width class
// (RowOps): kInline ANDs and counts 1-2-word tumor rows in place and credits
// the calls the dispatched kernels would have counted.
template <bool kInline>
[[gnu::always_inline]] inline double floor_body(const BitMatrix& tumor, const BitMatrix& normal,
                                                const FContext& ctx, std::uint32_t hits,
                                                std::span<const std::uint64_t> row_counts,
                                                FloorScratch& scratch) {
  const std::uint32_t genes = tumor.genes();
  RowOps<kInline> ops;
  // Step 0 keeps a whole row: the pick is the largest row count, the lowest
  // index on ties.
  std::uint32_t pick = static_cast<std::uint32_t>(
      std::max_element(row_counts.begin(), row_counts.end()) - row_counts.begin());
  std::uint64_t tp = row_counts[pick];
  std::vector<std::uint32_t>& combo = scratch.combo;
  combo.assign(1, pick);
  if (hits > 1) {
    // Later steps visit genes by row count descending, ties by index
    // ascending: a stable counting sort keyed on tp - count.
    std::vector<std::uint32_t>& start = scratch.start;
    start.assign(tp + 2, 0);
    for (const std::uint64_t n : row_counts) ++start[tp - n + 1];
    for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
    std::vector<std::uint32_t>& order = scratch.order;
    order.resize(genes);
    for (std::uint32_t g = 0; g < genes; ++g) order[start[tp - row_counts[g]]++] = g;

    const auto first = tumor.row(pick);
    std::vector<std::uint64_t>& prefix = scratch.prefix;
    prefix.assign(first.begin(), first.end());
    for (std::uint32_t step = 1; step < hits; ++step) {
      // A gene keeps at most its row count, so once counts fall below the
      // best kept so far no later gene can beat or tie the pick.
      pick = genes;
      for (const std::uint32_t g : order) {
        if (pick != genes && row_counts[g] < tp) break;
        if (std::find(combo.begin(), combo.end(), g) != combo.end()) continue;
        const std::uint64_t kept = ops.and_popcount(prefix, tumor.row(g));
        if (pick == genes || kept > tp || (kept == tp && g < pick)) {
          pick = g;
          tp = kept;
        }
      }
      combo.push_back(pick);
      ops.and_rows(prefix, prefix, tumor.row(pick));
    }
  }
  if constexpr (kInline) credit_inline_calls(ops.calls);
  return f_score(ctx, tp, normal.intersect_count(combo));
}

MULTIHIT_TARGET_POPCNT double floor_popcnt_inline(const BitMatrix& tumor, const BitMatrix& normal,
                                                  const FContext& ctx, std::uint32_t hits,
                                                  std::span<const std::uint64_t> row_counts,
                                                  FloorScratch& scratch) {
  return floor_body<true>(tumor, normal, ctx, hits, row_counts, scratch);
}

double floor_dispatched(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                        std::uint32_t hits, std::span<const std::uint64_t> row_counts,
                        FloorScratch& scratch) {
  return floor_body<false>(tumor, normal, ctx, hits, row_counts, scratch);
}

}  // namespace

std::string scheme_name(Scheme scheme) {
  const std::uint32_t inner = scheme.hits > scheme.flat ? scheme.hits - scheme.flat : 1;
  return std::to_string(scheme.flat) + "x" + std::to_string(inner);
}

std::uint64_t scheme_threads(Scheme scheme, std::uint32_t genes) {
  check_scheme(scheme, genes);
  return choose(genes, scheme.flat);
}

std::uint64_t scheme_range_work(Scheme scheme, std::uint32_t genes, std::uint64_t begin,
                                std::uint64_t end) {
  if (begin < end && end > scheme_threads(scheme, genes)) {
    throw std::invalid_argument("scheme_range_work: threads [" + std::to_string(begin) + ", " +
                                std::to_string(end) + ") exceed the " + scheme_name(scheme) +
                                " space of G = " + std::to_string(genes));
  }
  return range_work(scheme, genes, begin, end);
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
                                                       double floor, KernelCounts* counts,
                                                       CarriedBounds* carried,
                                                       std::span<const std::uint64_t> row_counts) {
  const std::uint32_t genes = tumor.genes();
  check_scheme(scheme, genes);
  check_row_counts("evaluate_range", row_counts, genes);
  // A normal matrix with fewer genes would be read past its last row.
  if (normal.genes() != genes) {
    throw std::invalid_argument("evaluate_range: tumor has " + std::to_string(genes) +
                                " genes, normal has " + std::to_string(normal.genes()));
  }
  if (carried != nullptr &&
      (carried->scheme() != scheme || carried->threads() != choose(genes, scheme.flat))) {
    throw std::invalid_argument("evaluate_range: carried bounds were not readied for the " +
                                scheme_name(scheme) + " space of G = " + std::to_string(genes));
  }
  // λ past the thread space would unrank to genes past the matrix.
  if (begin < end && end > choose(genes, scheme.flat)) {
    throw std::invalid_argument("evaluate_range: threads [" + std::to_string(begin) + ", " +
                                std::to_string(end) + ") exceed the " + scheme_name(scheme) +
                                " space of G = " + std::to_string(genes));
  }
  // A carried range holds whole blocks, so the kernel lowers every one it touches.
  const std::uint64_t span = carried != nullptr ? std::uint64_t{1} << carried->block_shift() : 1;
  if (begin % span != 0 || (end % span != 0 && end != carried->threads())) {
    throw std::invalid_argument("evaluate_range: carried range [" + std::to_string(begin) + ", " +
                                std::to_string(end) + ") splits blocks of " + std::to_string(span));
  }
  if (begin >= end) return EvalResult{};
  // The POPCNT bodies ride on the AVX2 gate, which also checks POPCNT, so
  // MULTIHIT_BITOPS=scalar keeps the portable body. Rows of 0 words go
  // through dispatch: the inline body reads row[0].
  auto* body = &scan_portable;
  if (active_backend() == BitopsBackend::kAvx2) {
    const auto narrow = [](std::size_t words) { return words >= 1 && words <= 2; };
    body = narrow(tumor.words_per_row()) && narrow(normal.words_per_row()) ? scan_popcnt_inline
                                                                           : scan_popcnt;
  }
  return body(tumor, normal, ctx, scheme, begin, end, floor, counts, carried, row_counts);
}

void tumor_row_counts(const BitMatrix& tumor, std::span<std::uint64_t> counts) {
  if (counts.size() != tumor.genes()) {
    throw std::invalid_argument("tumor_row_counts: table has " + std::to_string(counts.size()) +
                                " entries for " + std::to_string(tumor.genes()) + " genes");
  }
  // The POPCNT loop rides on the AVX2 gate, as the scan bodies do.
  if (active_backend() == BitopsBackend::kAvx2) {
    count_rows_popcnt(tumor, counts);
  } else {
    count_rows_portable(tumor, counts);
  }
}

double greedy_floor(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                    std::uint32_t hits, std::span<const std::uint64_t> row_counts) {
  const std::uint32_t genes = tumor.genes();
  check_row_counts("greedy_floor", row_counts, genes);
  if (hits == 0 || genes < hits) return kNoFloor;
  thread_local FloorScratch scratch;
  if (row_counts.empty()) {
    scratch.counts.resize(genes);
    tumor_row_counts(tumor, scratch.counts);
    row_counts = std::span<const std::uint64_t>(scratch.counts.data(), genes);
  }
  // The inline body rides on the AVX2 gate, as the scan bodies do.
  const std::size_t words = tumor.words_per_row();
  if (active_backend() == BitopsBackend::kAvx2 && words >= 1 && words <= 2) {
    return floor_popcnt_inline(tumor, normal, ctx, hits, row_counts, scratch);
  }
  return floor_dispatched(tumor, normal, ctx, hits, row_counts, scratch);
}

bool CarriedBounds::begin(const BitMatrix& tumor, const FContext& ctx, std::uint32_t hits) {
  const double alpha = ctx.params.alpha;
  // With α < 0 the numerator rises as TP falls, so no bound carries over.
  if (hits < 2 || !(alpha >= 0.0) || !std::isfinite(alpha)) return false;
  const Scheme scheme{hits, hits - 1};
  const std::uint32_t genes = tumor.genes();
  const bool same = scheme_ == scheme && genes_ == genes && alpha_ == alpha &&
                    normal_total_ == ctx.normal_total && tumor.words_per_row() <= tumor_words_ &&
                    ctx.tumor_total <= tumor_total_;
  tumor_words_ = tumor.words_per_row();
  tumor_total_ = ctx.tumor_total;
  if (same) return true;

  threads_ = scheme_threads(scheme, genes);
  scheme_ = scheme;
  genes_ = genes;
  alpha_ = alpha;
  normal_total_ = ctx.normal_total;
  const std::uint64_t span =
      std::max(kBlockThreads, std::bit_ceil((threads_ + max_blocks_ - 1) / max_blocks_));
  shift_ = static_cast<unsigned>(std::countr_zero(span));
  block_ub_.assign((threads_ + span - 1) >> shift_, kInf);
  thread_ub_.assign(scheme.flat == 1 && span == kBlockThreads ? threads_ : 0, kInf);
  warm_ = false;
  return true;
}

bool CarriedBounds::skips(std::uint64_t begin, std::uint64_t end, double floor,
                          const FContext& ctx) const noexcept {
  if (!warm_ || begin >= end) return false;
  const double denom = static_cast<double>(ctx.tumor_total + ctx.normal_total);
  for (std::uint64_t b = begin >> shift_; b <= (end - 1) >> shift_; ++b) {
    if (!(block_ub_[b] / denom < floor)) return false;
  }
  return true;
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
