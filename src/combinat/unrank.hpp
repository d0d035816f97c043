#pragma once
// Generic h-combination (un)ranking via the combinatorial number system.
//
// The pair/triple specializations in linearize.hpp are the hot paths the
// paper's kernels use; this generic form supports the serial reference
// engine for arbitrary hit counts (h = 2..9, the paper's biological range)
// and the property tests that pin the specializations to it.
//
// Ranking is colexicographic: for c_0 < c_1 < ... < c_{h-1},
//   λ = Σ_t C(c_t, t+1).

#include <cstdint>
#include <span>
#include <vector>

#include "combinat/binomial.hpp"

namespace multihit {

/// λ for a strictly increasing combination. Requires combo non-empty,
/// strictly increasing, and the rank to fit in u64.
u64 rank_combination(std::span<const std::uint32_t> combo) noexcept;

/// Inverse of rank_combination for combinations of size h >= 1.
std::vector<std::uint32_t> unrank_combination(u64 lambda, std::uint32_t h);

/// Allocation-free form: writes the size-combo.size() combination of rank
/// `lambda` into `combo` (combo must be non-empty). Each digit subtracts a
/// closed-form C(c, t) for t <= 5 (see choose), so repositioning a kernel
/// thread of up to 4 flat digits runs no 128-bit division.
void unrank_combination(u64 lambda, std::span<std::uint32_t> combo) noexcept;

/// Largest c with C(c, k) <= lambda: the top element of the size-k
/// combination of rank `lambda`. Requires k >= 1.
std::uint32_t colex_top(u64 lambda, std::uint32_t k) noexcept;

/// Advances `combo` (strictly increasing values in [0, universe)) to its
/// colexicographic successor, matching rank order. Returns false when combo
/// was the last one (and leaves it unspecified).
bool next_combination_colex(std::span<std::uint32_t> combo, std::uint32_t universe) noexcept;

/// First combination in colex order: {0, 1, ..., h-1}.
std::vector<std::uint32_t> first_combination(std::uint32_t h);

}  // namespace multihit
