// AVX2 backend: bit-sliced AND + popcount over packed sample rows, and the
// vectorized row AND that stages prefix slots.
//
// Structure of and_popcount2 (the vectorized-popcount pattern):
//
//   1. 64-word Harley-Seal blocks: sixteen 256-bit vectors are folded through
//      a carry-save-adder tree (ones/twos/fours/eights/sixteens), so the
//      nibble-LUT popcount runs once per SIXTEEN vectors instead of once per
//      vector — the classic Muła/Kurz/Lemire formulation.
//   2. 4-word vector tail: plain per-vector LUT popcount.
//   3. <4-word masked tail: _mm256_maskload_epi64 reads exactly the words
//      that remain (masked-off lanes are never touched, so reading a partial
//      trailing vector is safe) and zero-fills the rest — popcounts stay
//      bit-identical to the scalar reference because the fill is zero.
//
// Rows shorter than one Harley-Seal block (the common case at BRCA scale:
// 911 tumor samples = 15 words) bypass the CSA state entirely — a plain
// popcount-accumulate over vectors plus one horizontal sum, so the fixed
// hs_finish cost is never paid on short rows.
//
// The row AND is fused into the load stage. All loads are unaligned
// (_mm256_loadu_si256): rows are only 8-byte aligned, and BitSplicing and
// the differential tests deliberately shift span offsets.
//
// compress_rows, BitSplicing's row packer, compresses each source word with
// one PEXT (_pext_u64) under the shared packer loop (row_packer.hpp). PEXT
// is microcoded on AMD families 15h and 17h (tens of cycles, varying with the
// mask), so there the entry point runs the scalar compress instead.
//
// Everything is compiled with per-function target attributes
// ("avx2,bmi2"), keeping the translation unit buildable at baseline x86-64;
// callers must gate on backend_supported(BitopsBackend::kAvx2). On non-x86
// architectures the entry points forward to the scalar reference.

#include "bitmat/bitops.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <bit>

#include "bitmat/row_packer.hpp"

#define MULTIHIT_TARGET_AVX2 __attribute__((target("avx2,bmi2,popcnt")))

namespace multihit::bitops_avx2 {

namespace {

MULTIHIT_TARGET_AVX2 inline __m256i loadu(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

MULTIHIT_TARGET_AVX2 inline void storeu(std::uint64_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Per-vector popcount: nibble-LUT vpshufb counts per byte, vpsadbw folds
/// bytes into four 64-bit lane sums.
MULTIHIT_TARGET_AVX2 inline __m256i popcount256(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i counts =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// Carry-save adder: (h, l) = a + b + c per bit position.
MULTIHIT_TARGET_AVX2 inline __m256i csa(__m256i* h, __m256i a, __m256i b, __m256i c) noexcept {
  const __m256i u = _mm256_xor_si256(a, b);
  *h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  return _mm256_xor_si256(u, c);
}

/// Harley-Seal accumulation state across 64-word blocks.
struct HsState {
  __m256i total, ones, twos, fours, eights;
};

MULTIHIT_TARGET_AVX2 inline void hs_init(HsState* s) noexcept {
  s->total = s->ones = s->twos = s->fours = s->eights = _mm256_setzero_si256();
}

/// Folds one staged block of sixteen vectors into the CSA tree; the LUT
/// popcount fires once, on the sixteens carry.
MULTIHIT_TARGET_AVX2 inline void hs_block(HsState* s, const __m256i v[16]) noexcept {
  __m256i twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens;
  s->ones = csa(&twosA, s->ones, v[0], v[1]);
  s->ones = csa(&twosB, s->ones, v[2], v[3]);
  s->twos = csa(&foursA, s->twos, twosA, twosB);
  s->ones = csa(&twosA, s->ones, v[4], v[5]);
  s->ones = csa(&twosB, s->ones, v[6], v[7]);
  s->twos = csa(&foursB, s->twos, twosA, twosB);
  s->fours = csa(&eightsA, s->fours, foursA, foursB);
  s->ones = csa(&twosA, s->ones, v[8], v[9]);
  s->ones = csa(&twosB, s->ones, v[10], v[11]);
  s->twos = csa(&foursA, s->twos, twosA, twosB);
  s->ones = csa(&twosA, s->ones, v[12], v[13]);
  s->ones = csa(&twosB, s->ones, v[14], v[15]);
  s->twos = csa(&foursB, s->twos, twosA, twosB);
  s->fours = csa(&eightsB, s->fours, foursA, foursB);
  s->eights = csa(&sixteens, s->eights, eightsA, eightsB);
  s->total = _mm256_add_epi64(s->total, popcount256(sixteens));
}

/// Weighted fold of the residual CSA state into per-lane totals.
MULTIHIT_TARGET_AVX2 inline __m256i hs_fold(const HsState* s) noexcept {
  __m256i total = _mm256_slli_epi64(s->total, 4);
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(s->eights), 3));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(s->fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(s->twos), 1));
  return _mm256_add_epi64(total, popcount256(s->ones));
}

MULTIHIT_TARGET_AVX2 inline std::uint64_t hsum(__m256i v) noexcept {
  return static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3));
}

/// Load mask for the final rem (1..3) words: qword lanes < rem are read,
/// the rest are skipped by the hardware and come back zero.
MULTIHIT_TARGET_AVX2 inline __m256i tail_mask(std::size_t rem) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(rem)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

MULTIHIT_TARGET_AVX2 inline __m256i maskload(const std::uint64_t* p, __m256i mask) noexcept {
  return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), mask);
}

constexpr std::size_t kWordsPerVector = 4;
constexpr std::size_t kWordsPerBlock = 64;  // 16 vectors per Harley-Seal block

}  // namespace

// Cache-line aligned: code-layout shifts from unrelated edits moved sweep time up to 15%.
__attribute__((aligned(64)))
MULTIHIT_TARGET_AVX2 std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                                                 std::span<const std::uint64_t> b) noexcept {
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::size_t n = a.size();
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  if (n >= kWordsPerBlock) {
    HsState s;
    hs_init(&s);
    __m256i v[16];
    for (; w + kWordsPerBlock <= n; w += kWordsPerBlock) {
      for (std::size_t x = 0; x < 16; ++x) {
        const std::size_t o = w + kWordsPerVector * x;
        v[x] = _mm256_and_si256(loadu(pa + o), loadu(pb + o));
      }
      hs_block(&s, v);
    }
    acc = hs_fold(&s);
  }
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    acc = _mm256_add_epi64(acc, popcount256(_mm256_and_si256(loadu(pa + w), loadu(pb + w))));
  }
  if (w < n) {
    const __m256i m = tail_mask(n - w);
    acc = _mm256_add_epi64(acc,
                           popcount256(_mm256_and_si256(maskload(pa + w, m), maskload(pb + w, m))));
  }
  return hsum(acc);
}

// Cache-line aligned: code-layout shifts from unrelated edits moved sweep time up to 15%.
__attribute__((aligned(64)))
MULTIHIT_TARGET_AVX2 void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                                   std::span<const std::uint64_t> b) noexcept {
  std::uint64_t* pd = dst.data();
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::size_t n = dst.size();
  std::size_t w = 0;
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    storeu(pd + w, _mm256_and_si256(loadu(pa + w), loadu(pb + w)));
  }
  for (; w < n; ++w) pd[w] = pa[w] & pb[w];
}

namespace {

// Family check, not a feature check: CPUID reports BMI2 either way.
bool pext_microcoded() noexcept {
  static const bool microcoded = __builtin_cpu_is("amdfam15h") || __builtin_cpu_is("amdfam17h");
  return microcoded;
}

struct PextCompress {
  const std::uint64_t* keep;
  MULTIHIT_TARGET_AVX2 std::uint64_t operator()(std::uint64_t x, std::size_t w) const noexcept {
    return _pext_u64(x, keep[w]);
  }
};

}  // namespace

// Cache-line aligned, like the kernels above.
__attribute__((aligned(64)))
MULTIHIT_TARGET_AVX2 void compress_rows(std::span<std::uint64_t> words,
                                        std::span<const std::uint64_t> keep,
                                        std::span<const std::uint8_t> kept) {
  if (pext_microcoded()) return bitops_scalar::compress_rows(words, keep, kept);
  if (keep.empty()) return;
  bitops_detail::pack_rows(words.data(), words.size() / keep.size(), kept.data(), keep.size(),
                           PextCompress{keep.data()});
}

}  // namespace multihit::bitops_avx2

#else  // non-x86: keep the entry points linkable; dispatch never selects them.

namespace multihit::bitops_avx2 {

std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept {
  return bitops_scalar::and_popcount2(a, b);
}
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept {
  bitops_scalar::and_rows(dst, a, b);
}
void compress_rows(std::span<std::uint64_t> words, std::span<const std::uint64_t> keep,
                   std::span<const std::uint8_t> kept) {
  bitops_scalar::compress_rows(words, keep, kept);
}

}  // namespace multihit::bitops_avx2

#endif
