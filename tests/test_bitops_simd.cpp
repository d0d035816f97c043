// Differential harness pinning every bitops backend bit-identical to the
// scalar reference.
//
// The sweep is exhaustive over the dimensions where SIMD kernels actually
// break: row length (every word count 0..257, crossing the 4-word vector
// boundary, the 64-word Harley-Seal block boundary, and both tails at once),
// span alignment (offsets 0/1/3 words into a backing buffer — rows are only
// 8-byte aligned and BitSplicing shifts spans), and bit pattern (all-zeros,
// all-ones, alternating, single-bit, seeded random — carry-save adders and
// nibble LUTs fail differently on dense vs sparse inputs).
//
// Dispatch behaviour (parse/set/active/backend_supported) and the debug-mode
// length contract (mismatched spans must abort, not truncate) are covered at
// the bottom.

#include "bitmat/bitops.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace multihit {
namespace {

enum class Pattern { kZeros, kOnes, kAlternating, kSingleBit, kRandom };

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kZeros: return "zeros";
    case Pattern::kOnes: return "ones";
    case Pattern::kAlternating: return "alternating";
    case Pattern::kSingleBit: return "single-bit";
    case Pattern::kRandom: return "random";
  }
  return "?";
}

/// Fills `row`; `salt` decorrelates the operands of one AND so intersections
/// are non-trivial (a rotated single bit vs the same single bit, alternating
/// phases, distinct random streams).
void fill(std::span<std::uint64_t> row, Pattern p, std::uint64_t salt) {
  Rng rng(0x5eed + salt * 7919 + row.size());
  for (std::size_t w = 0; w < row.size(); ++w) {
    switch (p) {
      case Pattern::kZeros:
        row[w] = 0;
        break;
      case Pattern::kOnes:
        row[w] = ~0ULL;
        break;
      case Pattern::kAlternating:
        row[w] = (salt % 2 == 0) ? 0xAAAAAAAAAAAAAAAAULL : 0x5555555555555555ULL;
        break;
      case Pattern::kSingleBit:
        row[w] = w == row.size() / 2 ? (1ULL << ((salt * 13 + w) % 64)) : 0;
        break;
      case Pattern::kRandom:
        row[w] = rng();
        break;
    }
  }
}

struct OffsetRows {
  // Backing buffers are over-allocated so spans can start mid-buffer: the
  // kernels must honour arbitrary word offsets, not just vector-aligned ones.
  std::vector<std::uint64_t> buf_a, buf_b, buf_dst_s, buf_dst_v;
  std::span<const std::uint64_t> a, b;
  std::span<std::uint64_t> dst_s, dst_v;

  OffsetRows(std::size_t words, std::size_t offset, Pattern p) {
    const std::size_t alloc = words + offset;
    buf_a.resize(alloc);
    buf_b.resize(alloc);
    buf_dst_s.resize(alloc);
    buf_dst_v.resize(alloc);
    a = std::span<const std::uint64_t>(buf_a).subspan(offset, words);
    b = std::span<const std::uint64_t>(buf_b).subspan(offset, words);
    dst_s = std::span<std::uint64_t>(buf_dst_s).subspan(offset, words);
    dst_v = std::span<std::uint64_t>(buf_dst_v).subspan(offset, words);
    fill({buf_a.data() + offset, words}, p, 0);
    fill({buf_b.data() + offset, words}, p, 1);
  }
};

/// One backend-vs-scalar comparison of both kernels on one operand set.
void expect_identical(const OffsetRows& r, const std::string& label) {
  namespace sc = bitops_scalar;
  namespace av = bitops_avx2;
  EXPECT_EQ(sc::and_popcount2(r.a, r.b), av::and_popcount2(r.a, r.b)) << label;

  sc::and_rows(r.dst_s, r.a, r.b);
  av::and_rows(r.dst_v, r.a, r.b);
  EXPECT_TRUE(std::equal(r.dst_s.begin(), r.dst_s.end(), r.dst_v.begin())) << label;
}

class BitopsSimd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!backend_supported(BitopsBackend::kAvx2)) {
      GTEST_SKIP() << "AVX2 backend not supported on this host";
    }
  }
};

TEST_F(BitopsSimd, EveryLengthEveryPatternEveryOffsetMatchesScalar) {
  const Pattern kPatterns[] = {Pattern::kZeros, Pattern::kOnes, Pattern::kAlternating,
                               Pattern::kSingleBit, Pattern::kRandom};
  // 0..257 words crosses the empty row, sub-vector rows, the 4-word vector
  // step, the 64-word Harley-Seal block, multi-block rows, and every tail
  // combination (block+vector, block+word, vector+word, all three).
  for (std::size_t words = 0; words <= 257; ++words) {
    for (const Pattern p : kPatterns) {
      for (const std::size_t offset : {0, 1, 3}) {
        const OffsetRows rows(words, offset, p);
        expect_identical(rows, "words=" + std::to_string(words) + " pattern=" +
                                   pattern_name(p) + " offset=" + std::to_string(offset));
        if (HasFailure()) return;  // one exact counterexample beats 4000 repeats
      }
    }
  }
}

TEST_F(BitopsSimd, RandomRegressionSweepWithDenseAndSparseMixes) {
  // Adversarial mixes the fixed patterns miss: one operand dense, one sparse,
  // boundary words saturated. Seeded, so failures replay exactly.
  Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t words = rng.uniform(130);
    OffsetRows rows(words, rng.uniform(4), Pattern::kRandom);
    if (words > 0) {
      rows.buf_a[0] = ~0ULL;
      rows.buf_b[words - 1] = ~0ULL;
    }
    expect_identical(rows, "trial=" + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST_F(BitopsSimd, DispatchedEntryPointsFollowSetBackend) {
  const BitopsBackend previous = active_backend();
  std::vector<std::uint64_t> a(17), b(17);
  fill(a, Pattern::kRandom, 11);
  fill(b, Pattern::kRandom, 12);

  ASSERT_TRUE(set_backend(BitopsBackend::kScalar));
  EXPECT_EQ(active_backend(), BitopsBackend::kScalar);
  const std::uint64_t via_scalar = and_popcount(a, b);

  ASSERT_TRUE(set_backend(BitopsBackend::kAvx2));
  EXPECT_EQ(active_backend(), BitopsBackend::kAvx2);
  EXPECT_EQ(and_popcount(a, b), via_scalar);

  set_backend(previous);
}

TEST(BitopsDispatch, CallCountingCountsDispatchedCallsOnly) {
  // Counting swaps the dispatch table; the backend selection must survive
  // the swap, counters only advance while enabled, and each dispatched
  // kernel bumps exactly its own counter.
  const BitopsBackend backend_before = active_backend();
  ASSERT_FALSE(call_counting());

  std::vector<std::uint64_t> a(9), b(9), dst(9);
  fill(a, Pattern::kRandom, 31);
  fill(b, Pattern::kRandom, 32);

  const BitopsCallCounts before_off = thread_bitops_calls();
  (void)and_popcount(a, b);
  EXPECT_EQ((thread_bitops_calls() - before_off).total(), 0u)
      << "counters advanced while counting was off";

  EXPECT_FALSE(set_call_counting(true));
  EXPECT_TRUE(call_counting());
  EXPECT_EQ(active_backend(), backend_before);

  const BitopsCallCounts t0 = thread_bitops_calls();
  (void)popcount_row(a);  // scalar, outside dispatch: never counted
  (void)and_popcount(a, b);
  and_rows(dst, a, b);
  const BitopsCallCounts delta = thread_bitops_calls() - t0;
  EXPECT_EQ(delta.and2, 1u);
  EXPECT_EQ(delta.and_rows, 1u);
  EXPECT_EQ(delta.total(), 2u);

  // Counted results match uncounted ones (the wrappers only forward).
  const std::uint64_t counted = and_popcount(a, b);
  EXPECT_TRUE(set_call_counting(false));
  EXPECT_FALSE(call_counting());
  EXPECT_EQ(active_backend(), backend_before);
  EXPECT_EQ(and_popcount(a, b), counted);

  const BitopsCallCounts after_off = thread_bitops_calls();
  (void)and_popcount(a, b);
  EXPECT_EQ((thread_bitops_calls() - after_off).total(), 0u);
}

TEST(BitopsDispatch, ParseBackendRoundTrips) {
  bool ok = false;
  EXPECT_EQ(parse_backend("scalar", &ok), BitopsBackend::kScalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_backend("avx2", &ok), BitopsBackend::kAvx2);
  EXPECT_TRUE(ok);
  parse_backend("riscv-vector", &ok);
  EXPECT_FALSE(ok);
  parse_backend("", &ok);
  EXPECT_FALSE(ok);

  EXPECT_STREQ(backend_name(BitopsBackend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(BitopsBackend::kAvx2), "avx2");
}

TEST(BitopsDispatch, ScalarIsAlwaysSupportedAndSelectable) {
  EXPECT_TRUE(backend_supported(BitopsBackend::kScalar));
  const BitopsBackend previous = active_backend();
  EXPECT_TRUE(set_backend(BitopsBackend::kScalar));
  EXPECT_EQ(active_backend(), BitopsBackend::kScalar);
  set_backend(previous);
}

// The length contract is compiled in for assert builds and for MULTIHIT_CHECKS
// builds (the ASan preset); elsewhere the checks are zero-cost and this test
// documents that by skipping.
#if !defined(NDEBUG) || defined(MULTIHIT_CHECKS)
using BitopsContractDeathTest = ::testing::Test;

TEST(BitopsContractDeathTest, MismatchedSpanLengthsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::uint64_t> a(4), b(5), c(4);
  std::vector<std::uint64_t> dst(5);
  EXPECT_DEATH((void)and_popcount(a, b), "span length mismatch");
  EXPECT_DEATH(and_rows(dst, a, c), "span length mismatch");
  EXPECT_DEATH(and_rows(dst, b, c), "span length mismatch");
}
#else
TEST(BitopsContractDeathTest, MismatchedSpanLengthsAbort) {
  GTEST_SKIP() << "length contract compiled out (NDEBUG without MULTIHIT_CHECKS)";
}
#endif

}  // namespace
}  // namespace multihit
