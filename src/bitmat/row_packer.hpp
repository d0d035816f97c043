#pragma once
// BitSplicing's row packer, shared by the bitops backends (private to
// src/bitmat). Each backend instantiates it with its own per-word compress
// inside its own compiled body, so the compress inlines into the loop.

#include <cstddef>
#include <cstdint>

namespace multihit::bitops_detail {

/// Packs, in place, every n-word row of `words[0, rows * n)` to its kept
/// bits: row r lands at r * n' words, n' = ceil(sum(kept) / 64), where
/// kept[w] is the number of bits compress(x, w) keeps from word w. Each
/// source word goes through `compress` into a 64-bit accumulator, and each
/// destination word is stored once. Storing destination word o of row r
/// after reading source word w of that row never clobbers an unread word:
/// r·n' + o <= r·n + w, because n' <= n and o <= w (w + 1 source words hold
/// at most w + 1 words of kept bits).
template <class Compress>
[[gnu::always_inline]] inline void pack_rows(std::uint64_t* words, std::size_t rows,
                                             const std::uint8_t* kept, std::size_t n,
                                             const Compress& compress) noexcept {
  std::uint64_t* dst = words;
  const std::uint64_t* src = words;
  for (std::size_t r = 0; r < rows; ++r, src += n) {
    std::uint64_t acc = 0;
    unsigned fill = 0;  // bits held in acc, always < 64
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t bits = compress(src[w], w);
      const unsigned next = fill + kept[w];
      acc |= bits << fill;
      if (next >= 64) {
        *dst++ = acc;
        // The bits that did not fit: bits >> (64 - fill), 0 when fill == 0.
        acc = (bits >> 1) >> (63 - fill);
      }
      fill = next & 63;
    }
    if (fill != 0) *dst++ = acc;
  }
}

}  // namespace multihit::bitops_detail
