#pragma once
// Serial reference evaluator: the straightforward O(C(G,h)) scan the paper's
// original CPU implementation performed. Supports any hit count h >= 1 and
// is the correctness oracle every parallel path is pinned to in tests.

#include <cstdint>

#include "bitmat/bitmatrix.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"

namespace multihit {

/// Scans every h-gene combination and returns the best (F desc, rank asc).
/// Throws std::invalid_argument when tumor and normal gene counts differ or
/// hits is 0. Returns an invalid result when the combination space is empty
/// (genes < hits).
EvalResult serial_find_best(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                            std::uint32_t hits);

}  // namespace multihit
