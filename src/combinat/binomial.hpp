#pragma once
// Exact binomial coefficients.
//
// The combination spaces in this project reach C(20000, 4) ≈ 6.7e15 (fits in
// 64 bits) and C(20000, 5) ≈ 2.7e19 (does not). The 128-bit variants exist so
// the generic unranking code and the schedulers never silently overflow.

#include <cstdint>
#include <optional>

namespace multihit {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// C(n, k) in 128-bit arithmetic. Returns nullopt if the exact value
/// overflows 128 bits (far beyond anything this project enumerates).
std::optional<u128> binomial128(u64 n, u64 k) noexcept;

/// C(n, k) as u64. Returns nullopt when the value exceeds 2^64 - 1.
std::optional<u64> binomial_checked(u64 n, u64 k) noexcept;

/// C(n, k) as u64; terminates the process (assert-style) on overflow.
/// Use in contexts where the caller has already bounded n and k.
u64 binomial(u64 n, u64 k) noexcept;

/// Triangular number T(n) = C(n, 2) = n(n-1)/2.
constexpr u64 triangular(u64 n) noexcept { return n * (n - 1) / 2; }

/// C(n, 2) in 128 bits for unranking fix-up probes near u64-scale λ.
constexpr u128 triangular128(u64 n) noexcept {
  return static_cast<u128>(n) * (n - 1) / 2;
}

namespace detail {

/// n, n-1 and n-2 (0 below 0) with the factors 3 and 2 of their product
/// divided out: among any three consecutive integers one is divisible by 3
/// and one by 2, so the product of the three is C(n, 3) with no division
/// left.
struct TetrahedralFactors {
  u64 a, b, c;
};

constexpr TetrahedralFactors tetrahedral_factors(u64 n) noexcept {
  u64 a = n, b = n >= 1 ? n - 1 : 0, c = n >= 2 ? n - 2 : 0;
  if (a % 3 == 0) a /= 3;
  else if (b % 3 == 0) b /= 3;
  else c /= 3;
  if (a % 2 == 0) a /= 2;
  else if (b % 2 == 0) b /= 2;
  else c /= 2;
  return {a, b, c};
}

}  // namespace detail

/// C(n, 3) in 128 bits for unranking fix-up probes near u64-scale λ. The
/// factors are divided before multiplying, so no 128-bit division runs.
constexpr u128 tetrahedral128(u64 n) noexcept {
  const auto [a, b, c] = detail::tetrahedral_factors(n);
  return static_cast<u128>(a) * b * c;
}

/// Tetrahedral number = C(n, 3) = n(n-1)(n-2)/6, exact whenever it fits u64
/// (the factors are divided before multiplying to postpone overflow).
constexpr u64 tetrahedral(u64 n) noexcept {
  const auto [a, b, c] = detail::tetrahedral_factors(n);
  return a * b * c;
}

/// C(n, 4) in 128 bits — used by the (un)ranking fix-up loops, whose probes
/// can step past the largest n whose C(n,4) fits u64 (n = 145056).
constexpr u128 quartic128(u64 n) noexcept {
  if (n < 4) return 0;
  return static_cast<u128>(tetrahedral(n)) * (n - 3) / 4;
}

/// Quartic figurate number = C(n, 4). The intermediate C(n,3)·(n-3) is
/// evaluated in 128 bits (it exceeds u64 from n ≈ 102570, well below the
/// largest representable result); the *result* must fit u64 (n <= 145056),
/// which holds for every λ-derived value since λ itself is 64-bit.
constexpr u64 quartic(u64 n) noexcept {
  return static_cast<u64>(quartic128(n));
}

/// Pentatope number = C(n, 5), for the 5-hit extension. C(n,5) itself
/// overflows u64 for n > 18580, so callers must bound n (the checked
/// variant reports overflow; see binomial_checked).
constexpr u64 quintic(u64 n) noexcept {
  if (n < 5) return 0;
  // C(n,5)·5 = C(n,4)·(n-4) is exact; the intermediate needs 128 bits at
  // large n even when the result fits 64.
  return static_cast<u64>(static_cast<u128>(quartic(n)) * (n - 4) / 5);
}

/// C(n, k) through the closed forms above for k <= 5 and the generic
/// binomial beyond: what the kernel and the (un)ranking compute on every
/// reposition, rank and rank bound. Up to k = 4 no 128-bit division runs
/// (quartic's divisor 4 is a shift); quintic still divides by 5.
/// Exact whenever C(n, k) fits u64 and, for k = 2, n < 2^32 (every caller
/// passes a gene index).
[[gnu::always_inline]] inline u64 choose(u64 n, u64 k) noexcept {
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

}  // namespace multihit
