#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace multihit {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // A theoretically possible all-zero state would make the generator stick.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::normal() noexcept {
  // Box-Muller; discard the second variate for statelessness.
  double u1 = uniform_double();
  while (u1 <= 0.0) u1 = uniform_double();
  const double u2 = uniform_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::uint64_t Rng::poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda > 64.0) {
    const double v = lambda + std::sqrt(lambda) * normal();
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
  }
  const double limit = std::exp(-lambda);
  std::uint64_t count = 0;
  double product = uniform_double();
  while (product > limit) {
    ++count;
    product *= uniform_double();
  }
  return count;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n, std::uint64_t k) {
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k));
  // Floyd's algorithm: k iterations, each inserts exactly one new element.
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = uniform(j + 1);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  std::vector<std::uint64_t> result(chosen.begin(), chosen.end());
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace multihit
