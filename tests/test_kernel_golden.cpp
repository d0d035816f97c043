// Golden kernel digests: what the scheme kernel counts, the carried bounds it
// records and the winners it returns, hashed per greedy iteration and per
// direct evaluate_range call. The expected values were taken from the kernel
// that walked every thread of the zero-work tail one λ at a time, and are
// never re-taken: a change to the kernel's walk or set-up that moves one
// KernelCounts field, one carried bound, one F or one rank fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "combinat/binomial.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "core/schemes.hpp"
#include "data/generator.hpp"
#include "data/registry.hpp"
#include "serve/cache.hpp"

namespace multihit {
namespace {

/// FNV-1a over 64-bit values, doubles by their bit pattern.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }

  void add_counts(const KernelCounts& c) {
    add(c.combinations);
    add(c.pruned);
    add(c.leaf_cut);
    add(c.threads_skipped);
  }

  void add_result(const EvalResult& r) {
    add(r.valid ? 1 : 0);
    add_double(r.f);
    add(r.combo_rank);
    add(r.tp);
    add(r.tn);
  }

  /// Every block bound, and every thread's bound (the lower of its own and
  /// its block's).
  void add_bounds(const CarriedBounds& b) {
    add(b.warm() ? 1 : 0);
    add(b.threads());
    add(b.block_shift());
    const std::uint64_t span = std::uint64_t{1} << b.block_shift();
    for (std::uint64_t block = 0; block < (b.threads() + span - 1) / span; ++block) {
      add_double(b.block_bound(block));
    }
    for (std::uint64_t lambda = 0; lambda < b.threads(); ++lambda) {
      add_double(b.thread_bound(lambda));
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

SyntheticSpec spec_of(std::uint32_t genes, std::uint32_t hits, std::uint32_t tumor,
                      std::uint32_t normal, std::uint32_t planted, double background,
                      std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = tumor;
  spec.normal_samples = normal;
  spec.hits = hits;
  spec.num_combinations = planted;
  spec.background_rate = background;
  spec.seed = seed;
  return spec;
}

/// The noisy instance cut down: background 0.08 and a driver detect rate of
/// 0.6, so the planted combinations are used up after a few picks and most
/// iterations run past the signal, where warm walks cut threads on their
/// block's bound.
SyntheticSpec noisy_spec(std::uint32_t genes, std::uint32_t hits, std::uint32_t tumor,
                         std::uint32_t normal, std::uint64_t seed) {
  SyntheticSpec spec = spec_of(genes, hits, tumor, normal, 6, 0.08, seed);
  spec.driver_detect_rate = 0.6;
  return spec;
}

// ------------------------------------------------------------ greedy solves

/// A full greedy solve: per iteration the evaluation's KernelCounts, the
/// session's carried bounds after it, and the winner's F and rank.
/// `workers` 0 runs make_kernel_evaluator, otherwise a host sweep of that
/// many workers.
std::uint64_t solve_digest(const Dataset& data, std::uint32_t hits, std::uint32_t workers) {
  EngineConfig config;
  config.hits = hits;
  Digest digest;
  KernelCounts kernel_counts;
  const Evaluator kernel = make_kernel_evaluator(hits, &kernel_counts);
  HostSweepOptions options;
  options.hits = hits;
  options.threads = workers;
  const GreedyResult result = run_greedy(
      data.tumor, data.normal, config,
      [&](const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx) {
        KernelCounts counts;
        EvalResult best;
        if (workers == 0) {
          kernel_counts = {};
          best = kernel(tumor, normal, ctx);
          counts = kernel_counts;
        } else {
          HostSweepTelemetry telemetry;
          best = host_sweep_find_best(tumor, normal, ctx, options, &telemetry);
          counts = telemetry.counts;
        }
        digest.add_counts(counts);
        digest.add_result(best);
        if (ctx.carried != nullptr) digest.add_bounds(*ctx.carried);
        return best;
      });
  digest.add(result.iterations.size());
  return digest.value();
}

struct SolveCase {
  std::string name;
  Dataset data;
  std::uint32_t hits;
  std::uint64_t kernel, sweep1, sweep3;  ///< expected digests
};

void expect_solves(const std::vector<SolveCase>& cases) {
  for (const SolveCase& c : cases) {
    const std::uint64_t kernel = solve_digest(c.data, c.hits, 0);
    const std::uint64_t sweep1 = solve_digest(c.data, c.hits, 1);
    const std::uint64_t sweep3 = solve_digest(c.data, c.hits, 3);
    EXPECT_EQ(kernel, c.kernel) << c.name << " kernel evaluator: " << hex(kernel);
    EXPECT_EQ(sweep1, c.sweep1) << c.name << " 1-worker sweep: " << hex(sweep1);
    EXPECT_EQ(sweep3, c.sweep3) << c.name << " 3-worker sweep: " << hex(sweep3);
  }
}

TEST(KernelGolden, GreedySolvesAtEveryHitCount) {
  // Row widths of 1-2 words (the inline body) and of 3+ words (the row-count
  // cut); the sweep4 and cover2 wallbench shapes; ACC's served dataset, whose
  // stop iteration ties thousands of combinations at the top F.
  const CancerType acc = *find_cancer_type("ACC");
  // Expected digests: kernel evaluator, 1-worker sweep, 3-worker sweep.
  expect_solves({
      {"h=2 cover2 seed 7", generate_dataset(spec_of(300, 2, 1600, 1000, 60, 0.01, 7)), 2,
       0x497f92a338d19879ULL, 0x497f92a338d19879ULL, 0x878f793fc251433bULL},
      {"h=2 G=40 narrow", generate_dataset(spec_of(40, 2, 70, 50, 4, 0.05, 21)), 2,
       0x809da0ba34e5b3f3ULL, 0x809da0ba34e5b3f3ULL, 0x809da0ba34e5b3f3ULL},
      {"h=3 G=40 wide", generate_dataset(spec_of(40, 3, 200, 60, 4, 0.04, 31)), 3,
       0x4f6849b2462b08e3ULL, 0x4f6849b2462b08e3ULL, 0x83a57fe541b4b45cULL},
      {"h=3 G=30 narrow", generate_dataset(spec_of(30, 3, 70, 50, 3, 0.05, 32)), 3,
       0x227b7d8bb5ce719cULL, 0x227b7d8bb5ce719cULL, 0x905329bff61ebd37ULL},
      {"h=4 sweep4 seed 7", generate_dataset(spec_of(72, 4, 120, 80, 5, 0.012, 7)), 4,
       0x2680e98bbd533110ULL, 0x2680e98bbd533110ULL, 0x485aab06bbe65e53ULL},
      {"h=4 G=28 wide", generate_dataset(spec_of(28, 4, 220, 60, 3, 0.05, 41)), 4,
       0x0df61f94f77fc1c3ULL, 0x0df61f94f77fc1c3ULL, 0xda487ef955e86427ULL},
      {"h=4 ACC served", generate_dataset(serve::CancerCache::serve_spec(acc)), acc.hits,
       0x0e8a4d48e27a0d08ULL, 0x0e8a4d48e27a0d08ULL, 0x55800c6a5d79d57cULL},
      {"h=5 G=22 narrow", generate_dataset(spec_of(22, 5, 70, 50, 2, 0.05, 51)), 5,
       0x22edecd5cee127b3ULL, 0x22edecd5cee127b3ULL, 0x0f3520910ee053b0ULL},
      {"h=3 G=100 noisy", generate_dataset(noisy_spec(100, 3, 300, 200, 5)), 3,
       0x09dca370c36df03eULL, 0x09dca370c36df03eULL, 0xac86437647df29bbULL},
      {"h=4 G=60 noisy", generate_dataset(noisy_spec(60, 4, 128, 96, 5)), 4,
       0xf35ad9f35632893cULL, 0xf35ad9f35632893cULL, 0x8c61e704ee661c5aULL},
  });
}

// --------------------------------------------------- direct evaluate_range

/// C(G - d, f): the first thread of a scheme's zero-work tail, whose top
/// flat gene leaves fewer than d = hits - flat genes above it (the end of
/// the space when d == 0).
std::uint64_t tail_begin(Scheme scheme, std::uint32_t genes) {
  const std::uint32_t d = scheme.hits - scheme.flat;
  return d == 0 ? scheme_threads(scheme, genes) : binomial(genes - d, scheme.flat);
}

/// Ranges of every shape around the tail: the whole space, one ending
/// before it, one starting inside it, and ones straddling its first thread.
std::vector<std::pair<std::uint64_t, std::uint64_t>> tail_ranges(Scheme scheme,
                                                                  std::uint32_t genes) {
  const std::uint64_t total = scheme_threads(scheme, genes);
  const std::uint64_t tail = tail_begin(scheme, genes);
  const auto clamp = [&](std::uint64_t v) { return std::min(v, total); };
  return {{0, total},
          {0, tail},
          {tail > 5 ? tail - 5 : 0, clamp(tail + 5)},
          {clamp(tail + 1), total},
          {tail > 100 ? tail - 100 : 0, total > 7 ? total - 7 : total},
          {tail, total},
          {0, clamp(tail + 1)}};
}

/// Block-aligned ranges around the tail, for calls with carried bounds.
std::vector<std::pair<std::uint64_t, std::uint64_t>> carried_ranges(const CarriedBounds& bounds,
                                                                    Scheme scheme,
                                                                    std::uint32_t genes) {
  const std::uint64_t total = bounds.threads();
  const std::uint64_t span = std::uint64_t{1} << bounds.block_shift();
  const std::uint64_t tail = tail_begin(scheme, genes);
  const std::uint64_t below = tail / span * span;              // block holding the tail start
  const std::uint64_t above = std::min(total, below + span);   // the block after it
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
      {0, total}, {0, below}, {0, above}, {below, total}, {below, above}};
  if (above < total) ranges.push_back({above, total});
  if (below >= span) ranges.push_back({below - span, above});
  return ranges;
}

/// One evaluate_range call's counts and result, and the bounds it left.
/// Returns the counts.
KernelCounts add_call(Digest& digest, const BitMatrix& tumor, const BitMatrix& normal,
              const FContext& ctx, Scheme scheme, std::uint64_t begin, std::uint64_t end,
              double floor, CarriedBounds* carried) {
  KernelCounts counts;
  const EvalResult best =
      evaluate_range(tumor, normal, ctx, scheme, begin, end, floor, &counts, carried);
  digest.add(begin);
  digest.add(end);
  digest.add_counts(counts);
  digest.add_result(best);
  if (carried != nullptr) digest.add_bounds(*carried);
  return counts;
}

/// `data`'s tumor matrix with every sample from `keep` on zeroed, as an
/// exclusion step leaves it, and its context.
BitMatrix zeroed_from(const BitMatrix& tumor, std::uint32_t keep) {
  BitMatrix out = tumor;
  for (std::uint32_t g = 0; g < out.genes(); ++g) {
    for (std::uint32_t s = keep; s < out.samples(); ++s) out.clear(g, s);
  }
  return out;
}

/// Direct calls on `scheme` without carried bounds, on the dense matrix and
/// on a zeroed one, with no floor and with the greedy floor.
std::uint64_t range_digest(const Dataset& data, Scheme scheme) {
  Digest digest;
  const std::uint32_t keep = data.tumor_samples() / 4;
  const BitMatrix sparse = zeroed_from(data.tumor, keep);
  for (const bool zeroed : {false, true}) {
    const BitMatrix& tumor = zeroed ? sparse : data.tumor;
    const FContext ctx{FParams{}, zeroed ? keep : data.tumor_samples(), data.normal_samples()};
    const double floor = greedy_floor(tumor, data.normal, ctx, scheme.hits);
    for (const auto& [begin, end] : tail_ranges(scheme, data.genes())) {
      add_call(digest, tumor, data.normal, ctx, scheme, begin, end, kNoFloor, nullptr);
      add_call(digest, tumor, data.normal, ctx, scheme, begin, end, floor, nullptr);
    }
  }
  return digest.value();
}

/// Direct calls on Scheme{h, h-1} with carried bounds: each range on a
/// fresh copy of cold bounds, then of the warm bounds a whole-space pass
/// left, evaluated on the matrix with most samples zeroed.
std::uint64_t carried_digest(const Dataset& data, std::uint32_t hits) {
  const Scheme scheme{hits, hits - 1};
  Digest digest;
  const FContext dense{FParams{}, data.tumor_samples(), data.normal_samples()};
  CarriedBounds bounds;
  if (!bounds.begin(data.tumor, dense, hits)) return 0;
  const double dense_floor = greedy_floor(data.tumor, data.normal, dense, hits);
  for (const auto& [begin, end] : carried_ranges(bounds, scheme, data.genes())) {
    CarriedBounds cold = bounds;
    add_call(digest, data.tumor, data.normal, dense, scheme, begin, end, dense_floor, &cold);
  }
  add_call(digest, data.tumor, data.normal, dense, scheme, 0, bounds.threads(), dense_floor,
           &bounds);
  bounds.finish();

  const std::uint32_t keep = data.tumor_samples() / 4;
  const BitMatrix sparse = zeroed_from(data.tumor, keep);
  const FContext ctx{FParams{}, keep, data.normal_samples()};
  if (!bounds.begin(sparse, ctx, hits) || !bounds.warm()) return 0;
  const double floor = greedy_floor(sparse, data.normal, ctx, hits);
  std::uint64_t skipped = 0;
  for (const auto& [begin, end] : carried_ranges(bounds, scheme, data.genes())) {
    for (const double at : {floor, kNoFloor}) {
      CarriedBounds warm = bounds;
      skipped += add_call(digest, sparse, data.normal, ctx, scheme, begin, end, at, &warm)
                     .threads_skipped;
    }
  }
  EXPECT_GT(skipped, 0u) << "h=" << hits << ": the warm bounds skipped no thread";
  return digest.value();
}

TEST(KernelGolden, DirectRangesAroundTheZeroWorkTail) {
  // 2-word rows (inline body) and 4-word rows (row-count cut); d = 1
  // schemes at every depth, d = 2 (2x2 of 4 hits), d = 3 (1x3) and d = 0
  // (one combination per thread).
  const Dataset narrow = generate_dataset(spec_of(40, 4, 70, 50, 3, 0.06, 61));
  const Dataset wide = generate_dataset(spec_of(34, 4, 240, 60, 3, 0.05, 62));
  struct Case {
    std::string name;
    const Dataset* data;
    Scheme scheme;
    std::uint64_t expected;
  };
  const std::vector<Case> cases = {
      {"narrow 1x1", &narrow, Scheme{2, 1}, 0x3a11bef2050664f3ULL},
      {"narrow 2x1", &narrow, Scheme{3, 2}, 0x03c89538549e0a4aULL},
      {"narrow 3x1", &narrow, Scheme{4, 3}, 0x729fcf4faa8ad6cbULL},
      {"narrow 2x2", &narrow, Scheme{4, 2}, 0x61de299adf12dfd0ULL},
      {"narrow 1x3", &narrow, Scheme{4, 1}, 0x12dc58dc630ab26cULL},
      {"narrow 3x1 of 3 hits", &narrow, Scheme{3, 3}, 0x875b8fe14bc7c350ULL},
      {"wide 3x1", &wide, Scheme{4, 3}, 0xb1da9c406a18e8baULL},
      {"wide 2x2", &wide, Scheme{4, 2}, 0x439f2ccf460421daULL},
      {"wide 4x1 of 4 hits", &wide, Scheme{4, 4}, 0xc027a78fa8f6b66aULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t actual = range_digest(*c.data, c.scheme);
    EXPECT_EQ(actual, c.expected) << c.name << ": " << hex(actual);
  }
}

TEST(KernelGolden, CarriedRangesColdAndWarm) {
  const Dataset narrow = generate_dataset(spec_of(40, 4, 70, 50, 3, 0.06, 61));
  const Dataset wide = generate_dataset(spec_of(34, 4, 240, 60, 3, 0.05, 62));
  struct Case {
    std::string name;
    const Dataset* data;
    std::uint32_t hits;
    std::uint64_t expected;
  };
  const std::vector<Case> cases = {
      {"narrow h=2", &narrow, 2, 0x94b121cfd0378159ULL},
      {"narrow h=3", &narrow, 3, 0x1037f28a107c40a9ULL},
      {"narrow h=4", &narrow, 4, 0x4a0a895dc32d9b5bULL},
      {"wide h=4", &wide, 4, 0xd06bbeb5d65bb626ULL},
      {"wide h=5", &wide, 5, 0x8ee06a64a542a44eULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t actual = carried_digest(*c.data, c.hits);
    EXPECT_EQ(actual, c.expected) << c.name << ": " << hex(actual);
  }
}

}  // namespace
}  // namespace multihit
