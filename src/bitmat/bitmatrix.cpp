#include "bitmat/bitmatrix.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace multihit {

namespace {
constexpr std::uint32_t kWordBits = 64;
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

std::uint32_t BitMatrix::splice_columns(std::span<const std::uint64_t> keep) {
  if (keep.size() != words_per_row_) {
    throw std::invalid_argument("splice_columns: keep mask has " + std::to_string(keep.size()) +
                                " words, rows have " + std::to_string(words_per_row_));
  }
  return splice(keep, 0);
}

std::uint32_t BitMatrix::splice_covered(std::span<const std::uint64_t> covered) {
  if (covered.size() != words_per_row_) {
    throw std::invalid_argument("splice_covered: covered mask has " +
                                std::to_string(covered.size()) + " words, rows have " +
                                std::to_string(words_per_row_));
  }
  return splice(covered, ~std::uint64_t{0});
}

std::uint32_t BitMatrix::splice(std::span<const std::uint64_t> mask, std::uint64_t flip) {
  // Every row shares the mask, so it is read once: each word flipped, the
  // bits at or above samples() trimmed from the tail word, and counted.
  const std::uint64_t tail = samples_ % kWordBits == 0
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (samples_ % kWordBits)) - 1;
  std::vector<std::uint64_t> keep(words_per_row_);
  std::vector<std::uint8_t> kept(words_per_row_);
  std::uint32_t kept_total = 0;
  for (std::uint32_t w = 0; w < words_per_row_; ++w) {
    keep[w] = (mask[w] ^ flip) & (w + 1 == words_per_row_ ? tail : ~std::uint64_t{0});
    kept[w] = static_cast<std::uint8_t>(std::popcount(keep[w]));
    kept_total += kept[w];
  }

  // Packs in place: row g moves from g * old to g * new words, new <= old.
  compress_rows(words_, keep, kept);
  samples_ = kept_total;
  words_per_row_ = words_for(kept_total);
  words_.resize(static_cast<std::size_t>(genes_) * words_per_row_);
  return kept_total;
}

}  // namespace multihit
