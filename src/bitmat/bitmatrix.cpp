#include "bitmat/bitmatrix.hpp"

#include <bit>
#include <cassert>

namespace multihit {

namespace {
constexpr std::uint32_t kWordBits = 64;

// In 64 bits: samples + 63 wraps u32 for counts near 2^32.
std::uint32_t words_for(std::uint32_t samples) noexcept {
  return static_cast<std::uint32_t>((std::uint64_t{samples} + kWordBits - 1) / kWordBits);
}
}  // namespace

BitMatrix::BitMatrix(std::uint32_t genes, std::uint32_t samples)
    : genes_(genes),
      samples_(samples),
      words_per_row_(words_for(samples)),
      words_(static_cast<std::size_t>(genes) * words_per_row_, 0) {}

void BitMatrix::set(std::uint32_t gene, std::uint32_t sample) noexcept {
  assert(gene < genes_ && sample < samples_);
  row(gene)[sample / kWordBits] |= (std::uint64_t{1} << (sample % kWordBits));
}

void BitMatrix::clear(std::uint32_t gene, std::uint32_t sample) noexcept {
  assert(gene < genes_ && sample < samples_);
  row(gene)[sample / kWordBits] &= ~(std::uint64_t{1} << (sample % kWordBits));
}

bool BitMatrix::get(std::uint32_t gene, std::uint32_t sample) const noexcept {
  assert(gene < genes_ && sample < samples_);
  return (row(gene)[sample / kWordBits] >> (sample % kWordBits)) & 1;
}

std::uint64_t BitMatrix::intersect_count(std::span<const std::uint32_t> combo) const noexcept {
  switch (combo.size()) {
    case 0:
      return 0;
    case 1:
      return popcount_row(row(combo[0]));
    case 2:
      return and_popcount(row(combo[0]), row(combo[1]));
    default: {
      std::uint64_t count = 0;
      for (std::uint32_t w = 0; w < words_per_row_; ++w) {
        std::uint64_t acc = row(combo[0])[w];
        for (std::size_t t = 1; t < combo.size(); ++t) acc &= row(combo[t])[w];
        count += static_cast<std::uint64_t>(std::popcount(acc));
      }
      return count;
    }
  }
}

std::uint64_t BitMatrix::combine_rows(std::span<const std::uint32_t> combo,
                                      std::span<std::uint64_t> dst) const noexcept {
  assert(dst.size() == words_per_row_);
  assert(!combo.empty());
  std::uint64_t count = 0;
  for (std::uint32_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t acc = row(combo[0])[w];
    for (std::size_t t = 1; t < combo.size(); ++t) acc &= row(combo[t])[w];
    dst[w] = acc;
    count += static_cast<std::uint64_t>(std::popcount(acc));
  }
  return count;
}

std::uint64_t BitMatrix::total_set_bits() const noexcept {
  return popcount_row(words_);
}

// Cache-line aligned: code-layout shifts from unrelated edits moved splice time up to 25%.
__attribute__((aligned(64))) std::uint32_t BitMatrix::splice_columns(
    std::span<const std::uint64_t> keep) {
  assert(keep.size() == words_per_row_);

  // Precompute, per source word, the packed destination layout: for each
  // surviving source bit its destination (word, bit) advances densely.
  std::uint32_t kept = 0;
  for (std::uint32_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t mask = keep[w];
    // Bits beyond the logical sample count must not survive.
    if (w == words_per_row_ - 1 && samples_ % kWordBits != 0) {
      mask &= (std::uint64_t{1} << (samples_ % kWordBits)) - 1;
    }
    kept += static_cast<std::uint32_t>(std::popcount(mask));
  }

  const std::uint32_t new_words = words_for(kept);
  std::vector<std::uint64_t> compacted(static_cast<std::size_t>(genes_) * new_words, 0);

  for (std::uint32_t g = 0; g < genes_; ++g) {
    const auto src = row(g);
    std::uint64_t* dst = compacted.data() + static_cast<std::size_t>(g) * new_words;
    std::uint32_t out_pos = 0;
    for (std::uint32_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t mask = keep[w];
      if (w == words_per_row_ - 1 && samples_ % kWordBits != 0) {
        mask &= (std::uint64_t{1} << (samples_ % kWordBits)) - 1;
      }
      std::uint64_t bits = mask;
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        if ((src[w] >> b) & 1) {
          dst[out_pos / kWordBits] |= (std::uint64_t{1} << (out_pos % kWordBits));
        }
        ++out_pos;
      }
    }
  }

  samples_ = kept;
  words_per_row_ = new_words;
  words_ = std::move(compacted);
  return kept;
}

std::uint32_t BitMatrix::splice_covered(std::span<const std::uint64_t> covered) {
  assert(covered.size() == words_per_row_);
  std::vector<std::uint64_t> keep(words_per_row_);
  for (std::uint32_t w = 0; w < words_per_row_; ++w) keep[w] = ~covered[w];
  return splice_columns(keep);
}

}  // namespace multihit
