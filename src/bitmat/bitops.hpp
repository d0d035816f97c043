#pragma once
// Word-level kernels over packed sample rows, behind a runtime-dispatched
// backend.
//
// The paper packs 64 samples per `unsigned long long` (a 32x memory
// reduction versus one int per sample) and replaces per-sample arithmetic
// with bitwise AND + popcount. Two kernels carry the enumeration in
// core/schemes.cpp: every combination costs one two-row and_popcount per
// matrix, and and_rows refolds a prefix slot when one of its genes changes.
// They are the unit of scale the whole system is built around.
//
// Two implementations live behind the dispatched functions:
//
//   kScalar  portable word loop (std::popcount); the bit-exact reference
//            every other backend is pinned to in tests/test_bitops_simd.cpp.
//   kAvx2    AVX2 bit-sliced kernels: 4 words per vector, nibble-LUT
//            (vpshufb) popcount with Harley-Seal carry-save accumulation on
//            long rows, unaligned loads throughout (rows are only 8-byte
//            aligned after BitSplicing shifts). Compiled with per-function
//            target attributes, so the rest of the binary stays baseline
//            x86-64 and the backend is a pure *runtime* decision. The CPU
//            must also have POPCNT: the enumeration kernel runs a
//            target("popcnt") body whenever this backend is active, and on
//            rows of 1-2 words that body ANDs and counts them inline
//            instead of calling the dispatched kernels.
//
// Dispatch is resolved once from CPUID (and the MULTIHIT_BITOPS environment
// override: "scalar", "avx2", or "auto") on first use; set_backend() can
// retarget it at any time. All backends produce bit-identical counts, so the
// choice is invisible to everything above — only the wall clock moves.
//
// Length contract: both kernels require equal-length spans. In checked
// builds (!NDEBUG or MULTIHIT_CHECKS, the ASan preset) a mismatch aborts
// with a diagnostic, in the dispatched kernels and in the enumeration
// kernel's inline copies alike (MULTIHIT_BITOPS_CHECK); release builds
// trust the caller (BitMatrix rows are same-width by construction).

#include <cstddef>
#include <cstdint>
#include <span>

namespace multihit {

/// Aborts with "<op> span length mismatch (a, b[, c])" unless a == b and,
/// when c is given, b == c. Called through MULTIHIT_BITOPS_CHECK only.
void check_span_lengths(const char* op, std::size_t a, std::size_t b,
                        std::size_t c = ~std::size_t{0}) noexcept;

// Active in assert builds and whenever MULTIHIT_CHECKS is defined (the ASan
// preset turns it on so the optimized sanitizer run still exercises it).
#if !defined(NDEBUG) || defined(MULTIHIT_CHECKS)
#define MULTIHIT_BITOPS_CHECK(...) ::multihit::check_span_lengths(__VA_ARGS__)
#else
#define MULTIHIT_BITOPS_CHECK(...) ((void)0)
#endif

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

enum class BitopsBackend {
  kScalar,  ///< portable reference path
  kAvx2,    ///< AVX2(+BMI2) vectorized popcount
};

/// Human-readable backend name ("scalar", "avx2").
const char* backend_name(BitopsBackend backend) noexcept;

/// True when the running CPU can execute `backend` (CPUID probe; kScalar is
/// always supported).
bool backend_supported(BitopsBackend backend) noexcept;

/// The backend the free functions currently dispatch to. First call resolves
/// the MULTIHIT_BITOPS override ("scalar" | "avx2" | "auto"; unset == auto);
/// auto picks the fastest supported backend. An unsupported or unrecognized
/// override logs a warning and falls back to auto.
BitopsBackend active_backend() noexcept;

/// Retargets dispatch. Returns false (and leaves dispatch unchanged) when
/// the backend is not supported on this CPU. Thread-safe, but callers are
/// expected to settle the backend before spawning sweep workers.
bool set_backend(BitopsBackend backend) noexcept;

/// Parses a MULTIHIT_BITOPS-style name: "scalar" -> kScalar, "avx2" ->
/// kAvx2, "auto" / nullptr -> the best supported backend. Unknown names
/// return auto and set *ok to false when ok is non-null.
BitopsBackend parse_backend(const char* name, bool* ok = nullptr) noexcept;

/// popcount over one row: a plain scalar word loop, not dispatched (its
/// callers are BitMatrix::total_set_bits and the one-gene serial path; the
/// enumeration kernel counts its prefix bound inline).
std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept;

// ---------------------------------------------------------------------------
// Dispatched kernels (the public hot path)
// ---------------------------------------------------------------------------

/// popcount(a & b). Rows must be the same length.
std::uint64_t and_popcount(std::span<const std::uint64_t> a,
                           std::span<const std::uint64_t> b) noexcept;

/// dst = a & b: folds one more gene into a prefix slot, so the innermost
/// loop ANDs one staged row instead of re-reading every gene's row.
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept;

// ---------------------------------------------------------------------------
// Kernel-call counting (host profiler support)
// ---------------------------------------------------------------------------

/// Per-thread counts of kernel calls, one counter per kernel: the dispatched
/// calls, plus the ones the enumeration kernel makes inline on rows of 1-2
/// words (credited once per evaluate_range call, see credit_inline_calls).
/// Plain monotonic counters: they only advance while call counting is
/// enabled, and only for calls made by the reading thread.
struct BitopsCallCounts {
  std::uint64_t and2 = 0;
  std::uint64_t and_rows = 0;

  std::uint64_t total() const noexcept { return and2 + and_rows; }

  BitopsCallCounts operator-(const BitopsCallCounts& other) const noexcept {
    return {and2 - other.and2, and_rows - other.and_rows};
  }
};

/// Swaps the dispatch table between the plain kernels and counting wrappers
/// that bump this thread's BitopsCallCounts before forwarding. When counting
/// is off (the default) the plain table is installed and the hot path pays
/// nothing — not even a branch. Returns the previous state. Thread-safe, but
/// like set_backend callers should settle it before spawning sweep workers.
bool set_call_counting(bool enabled) noexcept;

/// Whether the counting tables are currently installed.
bool call_counting() noexcept;

/// Adds `calls`, kernel calls the caller made inline rather than through
/// dispatch, to this thread's counters. A no-op unless call counting is on.
void credit_inline_calls(const BitopsCallCounts& calls) noexcept;

/// The calling thread's kernel-call counters. Snapshot before and after a
/// counted region and subtract; counts never reset.
const BitopsCallCounts& thread_bitops_calls() noexcept;

// ---------------------------------------------------------------------------
// Direct backend entry points (tests and benches pin these against each
// other; production code goes through the dispatched functions above)
// ---------------------------------------------------------------------------

namespace bitops_scalar {
std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept;
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept;
}  // namespace bitops_scalar

/// AVX2 entry points exist on every x86-64 build (per-function target
/// attributes); calling them on a CPU without AVX2 is undefined — gate on
/// backend_supported(BitopsBackend::kAvx2). On non-x86 builds they forward
/// to the scalar reference so callers can link unconditionally.
namespace bitops_avx2 {
std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept;
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept;
}  // namespace bitops_avx2

}  // namespace multihit
