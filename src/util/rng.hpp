#pragma once
// Deterministic, fast pseudo-random number generation for synthetic data
// and property tests.
//
// xoshiro256** seeded via splitmix64: every experiment in this repository is
// reproducible from a single 64-bit seed. std::mt19937_64 is deliberately
// avoided — its seeding is implementation-dependent across stdlib versions.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace multihit {

/// splitmix64 step: used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless rejection method; unbiased.
  std::uint64_t uniform(std::uint64_t bound) noexcept {
    using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1): the top 53 bits of one draw, times 2^-53.
  double uniform_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]). Takes
  /// no draw when p <= 0 or p >= 1, and exactly one otherwise, NaN included
  /// (a NaN p always fails).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_double() < p;
  }

  /// The integer form of bernoulli's test: a draw x succeeds iff
  /// (x >> 11) < bernoulli_threshold(p). For 0 < p < 1 this is
  /// ceil(p * 2^53), exact because scaling by 2^53 is; it is 0 for p <= 0
  /// and NaN (no cast of a NaN) and 2^53 for p >= 1, so the outcome matches
  /// bernoulli(p) for every p. Whether a draw is taken is still bernoulli's
  /// rule above.
  static std::uint64_t bernoulli_threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Standard normal variate (Box-Muller, one value per call).
  double normal() noexcept;

  /// Poisson variate with mean lambda >= 0 (Knuth for small lambda,
  /// normal approximation above 64).
  std::uint64_t poisson(double lambda) noexcept;

  /// Samples k distinct values from [0, n) in increasing order.
  /// Requires k <= n. O(k) expected time via Floyd's algorithm + sort.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n, std::uint64_t k);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace multihit
