#include "bitmat/bitops.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bitmat/row_packer.hpp"
#include "util/log.hpp"

namespace multihit {

// Violations abort: a mismatched span means some caller is about to read
// past a row, and silently truncating to the shorter span would return a
// plausible-but-wrong popcount.
void check_span_lengths(const char* op, std::size_t a, std::size_t b, std::size_t c) noexcept {
  if (a == b && (c == ~std::size_t{0} || b == c)) return;
  std::fprintf(stderr, "multihit bitops: %s span length mismatch (%zu, %zu", op, a, b);
  if (c != ~std::size_t{0}) std::fprintf(stderr, ", %zu", c);
  std::fprintf(stderr, ")\n");
  std::abort();
}

std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept {
  std::uint64_t count = 0;
  for (std::uint64_t word : a) count += static_cast<std::uint64_t>(std::popcount(word));
  return count;
}

// ---------------------------------------------------------------------------
// Scalar reference backend
// ---------------------------------------------------------------------------

namespace {

/// The portable compress. The keep mask is split once per splice into each
/// word's maximal runs of kept bits (countr_zero / countr_one); compressing
/// word w of a row then moves each of that word's runs as one shift-and-mask
/// block. A greedy mask's words hold one or two runs.
class RunCompress {
 public:
  explicit RunCompress(std::span<const std::uint64_t> keep) : first_(keep.size() + 1, 0) {
    for (std::size_t w = 0; w < keep.size(); ++w) {
      std::uint64_t bits = keep[w];
      std::uint32_t pos = 0;
      while (bits != 0) {
        const auto shift = static_cast<std::uint32_t>(std::countr_zero(bits));
        const auto len = static_cast<std::uint32_t>(std::countr_one(bits >> shift));
        const std::uint64_t mask = len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
        runs_.push_back({mask, shift, pos});
        bits &= ~(mask << shift);
        pos += len;
      }
      first_[w + 1] = static_cast<std::uint32_t>(runs_.size());
    }
  }

  std::uint64_t operator()(std::uint64_t x, std::size_t w) const noexcept {
    std::uint64_t out = 0;
    for (std::uint32_t i = first_[w]; i < first_[w + 1]; ++i) {
      out |= ((x >> runs_[i].shift) & runs_[i].mask) << runs_[i].pos;
    }
    return out;
  }

 private:
  struct Run {
    std::uint64_t mask;  ///< low len bits set
    std::uint32_t shift;
    std::uint32_t pos;  ///< where the run lands in the compressed word
  };
  std::vector<Run> runs_;
  std::vector<std::uint32_t> first_;  ///< word w's runs are [first_[w], first_[w + 1])
};

}  // namespace

namespace bitops_scalar {

std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept {
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept {
  for (std::size_t w = 0; w < dst.size(); ++w) dst[w] = a[w] & b[w];
}

// Cache-line aligned, like the enumeration kernels (see DESIGN.md).
__attribute__((aligned(64))) void compress_rows(std::span<std::uint64_t> words,
                                                std::span<const std::uint64_t> keep,
                                                std::span<const std::uint8_t> kept) {
  if (keep.empty()) return;
  const RunCompress compress(keep);
  bitops_detail::pack_rows(words.data(), words.size() / keep.size(), kept.data(), keep.size(),
                           compress);
}

}  // namespace bitops_scalar

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace {

struct Kernels {
  BitopsBackend backend;
  std::uint64_t (*and2)(std::span<const std::uint64_t>, std::span<const std::uint64_t>) noexcept;
  void (*and_rows)(std::span<std::uint64_t>, std::span<const std::uint64_t>,
                   std::span<const std::uint64_t>) noexcept;
  void (*compress_rows)(std::span<std::uint64_t>, std::span<const std::uint64_t>,
                        std::span<const std::uint8_t>);
};

constexpr Kernels kScalarKernels{BitopsBackend::kScalar, bitops_scalar::and_popcount2,
                                 bitops_scalar::and_rows, bitops_scalar::compress_rows};

constexpr Kernels kAvx2Kernels{BitopsBackend::kAvx2, bitops_avx2::and_popcount2,
                               bitops_avx2::and_rows, bitops_avx2::compress_rows};

// -------------------------------------------------------------- call counting
//
// The host profiler wants exact per-op dispatched-call counts without taxing
// unprofiled runs. Rather than an always-on thread_local check in every
// kernel, counting is a second pair of dispatch tables whose entries bump the
// calling thread's counters and forward to the plain backend; enabling it is
// one table-pointer swap, so the cost when off is exactly zero.

thread_local BitopsCallCounts tl_calls;

std::atomic<bool> g_counting{false};

template <const Kernels& kBase>
std::uint64_t counted_and2(std::span<const std::uint64_t> a,
                           std::span<const std::uint64_t> b) noexcept {
  ++tl_calls.and2;
  return kBase.and2(a, b);
}
template <const Kernels& kBase>
void counted_and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                      std::span<const std::uint64_t> b) noexcept {
  ++tl_calls.and_rows;
  kBase.and_rows(dst, a, b);
}

template <const Kernels& kBase>
constexpr Kernels counting_table() noexcept {
  return Kernels{kBase.backend, counted_and2<kBase>, counted_and_rows<kBase>,
                 kBase.compress_rows};
}

constexpr Kernels kScalarCounting = counting_table<kScalarKernels>();
constexpr Kernels kAvx2Counting = counting_table<kAvx2Kernels>();

const Kernels* table_for(BitopsBackend backend, bool counting) noexcept {
  if (counting) {
    return backend == BitopsBackend::kAvx2 ? &kAvx2Counting : &kScalarCounting;
  }
  return backend == BitopsBackend::kAvx2 ? &kAvx2Kernels : &kScalarKernels;
}

// Resolved dispatch target. nullptr = not yet resolved; resolution is
// idempotent (every racer computes the same answer from CPUID + env), so a
// benign first-use race is fine.
std::atomic<const Kernels*> g_kernels{nullptr};

const Kernels* resolve_initial() noexcept {
  const char* env = std::getenv("MULTIHIT_BITOPS");
  bool ok = true;
  BitopsBackend backend = parse_backend(env, &ok);
  if (!ok) {
    MH_LOG_WARN << "MULTIHIT_BITOPS='" << env
                << "' not recognized (expected scalar|avx2|auto); using auto";
  } else if (env != nullptr && !backend_supported(backend)) {
    MH_LOG_WARN << "MULTIHIT_BITOPS=" << backend_name(backend)
                << " not supported on this CPU; using scalar";
    backend = BitopsBackend::kScalar;
  }
  return table_for(backend, g_counting.load(std::memory_order_acquire));
}

const Kernels& kernels() noexcept {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_initial();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

}  // namespace

const char* backend_name(BitopsBackend backend) noexcept {
  switch (backend) {
    case BitopsBackend::kScalar:
      return "scalar";
    case BitopsBackend::kAvx2:
      return "avx2";
  }
  return "?";
}

bool backend_supported(BitopsBackend backend) noexcept {
  switch (backend) {
    case BitopsBackend::kScalar:
      return true;
    case BitopsBackend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      // BMI2 ships on every AVX2-era core (Haswell+) and the splice's
      // compress is a PEXT, so the backend requires both. POPCNT too:
      // the AVX2 bodies are compiled with it, and the enumeration kernel's
      // target("popcnt") body runs whenever this backend is active, so a VM
      // whose CPUID masks it must fall back to scalar.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2") &&
             __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
  }
  return false;
}

BitopsBackend parse_backend(const char* name, bool* ok) noexcept {
  if (ok) *ok = true;
  const auto best = []() noexcept {
    return backend_supported(BitopsBackend::kAvx2) ? BitopsBackend::kAvx2
                                                   : BitopsBackend::kScalar;
  };
  if (name == nullptr || std::strcmp(name, "auto") == 0) return best();
  if (std::strcmp(name, "scalar") == 0) return BitopsBackend::kScalar;
  if (std::strcmp(name, "avx2") == 0) return BitopsBackend::kAvx2;
  if (ok) *ok = false;
  return best();
}

BitopsBackend active_backend() noexcept { return kernels().backend; }

bool set_backend(BitopsBackend backend) noexcept {
  if (!backend_supported(backend)) return false;
  g_kernels.store(table_for(backend, g_counting.load(std::memory_order_acquire)),
                  std::memory_order_release);
  return true;
}

bool set_call_counting(bool enabled) noexcept {
  const bool previous = g_counting.exchange(enabled, std::memory_order_acq_rel);
  // kernels() resolves the backend first if this is the very first bitops
  // call, then the swap installs the matching plain/counting table.
  g_kernels.store(table_for(kernels().backend, enabled), std::memory_order_release);
  return previous;
}

bool call_counting() noexcept { return g_counting.load(std::memory_order_acquire); }

void credit_inline_calls(const BitopsCallCounts& calls) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  tl_calls.and2 += calls.and2;
  tl_calls.and_rows += calls.and_rows;
}

const BitopsCallCounts& thread_bitops_calls() noexcept { return tl_calls; }

// Cache-line aligned: code-layout shifts from unrelated edits moved sweep time up to 15%.
__attribute__((aligned(64))) std::uint64_t and_popcount(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) noexcept {
  MULTIHIT_BITOPS_CHECK("and_popcount/2", a.size(), b.size());
  return kernels().and2(a, b);
}

// Cache-line aligned: code-layout shifts from unrelated edits moved sweep time up to 15%.
__attribute__((aligned(64))) void and_rows(std::span<std::uint64_t> dst,
                                           std::span<const std::uint64_t> a,
                                           std::span<const std::uint64_t> b) noexcept {
  MULTIHIT_BITOPS_CHECK("and_rows", dst.size(), a.size(), b.size());
  kernels().and_rows(dst, a, b);
}

void compress_rows(std::span<std::uint64_t> words, std::span<const std::uint64_t> keep,
                   std::span<const std::uint8_t> kept) {
  MULTIHIT_BITOPS_CHECK("compress_rows", keep.size(), kept.size());
  kernels().compress_rows(words, keep, kept);
}

}  // namespace multihit
