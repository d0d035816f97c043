#include "combinat/unrank.hpp"

#include <cassert>

#include "combinat/linearize.hpp"

namespace multihit {

u64 rank_combination(std::span<const std::uint32_t> combo) noexcept {
  u64 lambda = 0;
  for (std::size_t t = 0; t < combo.size(); ++t) {
    lambda += binomial(combo[t], static_cast<u64>(t) + 1);
  }
  return lambda;
}

std::uint32_t colex_top(u64 lambda, std::uint32_t k) noexcept {
  assert(k >= 1);
  switch (k) {  // the closed-form levels of the linearized hot paths
    case 1:
      return static_cast<std::uint32_t>(lambda);
    case 2:
      return unrank_pair(lambda).j;
    case 3:
      return tetrahedral_level(lambda);
    case 4:
      return quartic_level(lambda);
    default:
      break;
  }
  // Galloping + binary search keeps this O(log c) without floating point.
  u64 lo = k - 1;  // C(k-1, k) = 0 <= lambda always holds
  u64 hi = lo + 1;
  while (true) {
    const auto v = binomial128(hi, k);
    if (v && *v <= static_cast<u128>(lambda)) {
      lo = hi;
      hi *= 2;
    } else {
      break;
    }
  }
  while (lo + 1 < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    const auto v = binomial128(mid, k);
    if (v && *v <= static_cast<u128>(lambda)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint32_t>(lo);
}

void unrank_combination(u64 lambda, std::span<std::uint32_t> combo) noexcept {
  assert(!combo.empty());
  u64 rem = lambda;
  for (auto t = static_cast<std::uint32_t>(combo.size()); t >= 1; --t) {
    const std::uint32_t c = colex_top(rem, t);
    combo[t - 1] = c;
    rem -= binomial(c, t);
  }
}

std::vector<std::uint32_t> unrank_combination(u64 lambda, std::uint32_t h) {
  assert(h >= 1);
  std::vector<std::uint32_t> combo(h);
  unrank_combination(lambda, std::span<std::uint32_t>(combo));
  return combo;
}

bool next_combination_colex(std::span<std::uint32_t> combo, std::uint32_t universe) noexcept {
  const std::size_t h = combo.size();
  // Find the lowest position that can be advanced: combo[t] can move up if
  // it stays below combo[t+1] (or below universe for the top position).
  for (std::size_t t = 0; t < h; ++t) {
    const std::uint32_t limit = (t + 1 < h) ? combo[t + 1] : universe;
    if (combo[t] + 1 < limit) {
      ++combo[t];
      // Reset everything below to the smallest values.
      for (std::size_t s = 0; s < t; ++s) combo[s] = static_cast<std::uint32_t>(s);
      return true;
    }
  }
  return false;
}

std::vector<std::uint32_t> first_combination(std::uint32_t h) {
  std::vector<std::uint32_t> combo(h);
  for (std::uint32_t t = 0; t < h; ++t) combo[t] = t;
  return combo;
}

}  // namespace multihit
