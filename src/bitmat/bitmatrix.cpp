#include "bitmat/bitmatrix.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace multihit {

namespace {
constexpr std::uint32_t kWordBits = 64;

// In 64 bits (matrix_words): samples + 63 wraps u32 for counts near 2^32.
std::uint32_t words_for(std::uint32_t samples) noexcept {
  return static_cast<std::uint32_t>(matrix_words(1, samples));
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

namespace {

// One maximal run of kept samples inside one source word: `len` bits starting
// at bit `shift` of source word `src_word` land at packed position `dst_bit`.
struct SpliceRun {
  std::uint64_t mask;  ///< low `len` bits set
  std::uint32_t src_word;
  std::uint32_t dst_bit;
  std::uint32_t shift;
  std::uint32_t len;
};

// Splits `keep` into its runs, in sample order; bits at positions >= samples
// are dropped from the last word.
std::vector<SpliceRun> splice_runs(std::span<const std::uint64_t> keep, std::uint32_t samples) {
  std::vector<SpliceRun> runs;
  std::uint32_t dst_bit = 0;
  for (std::uint32_t w = 0; w < keep.size(); ++w) {
    std::uint64_t bits = keep[w];
    if (w == keep.size() - 1 && samples % kWordBits != 0) {
      bits &= (std::uint64_t{1} << (samples % kWordBits)) - 1;
    }
    while (bits != 0) {
      const auto shift = static_cast<std::uint32_t>(std::countr_zero(bits));
      const auto len = static_cast<std::uint32_t>(std::countr_one(bits >> shift));
      const std::uint64_t mask = len == kWordBits ? ~std::uint64_t{0}
                                                  : (std::uint64_t{1} << len) - 1;
      runs.push_back({mask, w, dst_bit, shift, len});
      bits &= ~(mask << shift);
      dst_bit += len;
    }
  }
  return runs;
}

}  // namespace

// Cache-line aligned: code-layout shifts from unrelated edits moved splice time up to 25%.
__attribute__((aligned(64))) std::uint32_t BitMatrix::splice_columns(
    std::span<const std::uint64_t> keep) {
  if (keep.size() != words_per_row_) {
    throw std::invalid_argument("splice_columns: keep mask has " + std::to_string(keep.size()) +
                                " words, rows have " + std::to_string(words_per_row_));
  }

  // Every row shares the mask, so its runs are found once; each row then
  // moves a run as one shift-and-mask block, ORed into at most two words.
  const std::vector<SpliceRun> runs = splice_runs(keep, samples_);
  const std::uint32_t kept = runs.empty() ? 0 : runs.back().dst_bit + runs.back().len;
  const std::uint32_t new_words = words_for(kept);
  std::vector<std::uint64_t> compacted(static_cast<std::size_t>(genes_) * new_words, 0);

  for (std::uint32_t g = 0; g < genes_; ++g) {
    const auto src = row(g);
    std::uint64_t* dst = compacted.data() + static_cast<std::size_t>(g) * new_words;
    for (const SpliceRun& run : runs) {
      const std::uint64_t block = (src[run.src_word] >> run.shift) & run.mask;
      const std::uint32_t word = run.dst_bit / kWordBits;
      const std::uint32_t offset = run.dst_bit % kWordBits;
      dst[word] |= block << offset;
      if (offset + run.len > kWordBits) dst[word + 1] |= block >> (kWordBits - offset);
    }
  }

  samples_ = kept;
  words_per_row_ = new_words;
  words_ = std::move(compacted);
  return kept;
}

std::uint32_t BitMatrix::splice_covered(std::span<const std::uint64_t> covered) {
  if (covered.size() != words_per_row_) {
    throw std::invalid_argument("splice_covered: covered mask has " +
                                std::to_string(covered.size()) + " words, rows have " +
                                std::to_string(words_per_row_));
  }
  std::vector<std::uint64_t> keep(words_per_row_);
  for (std::uint32_t w = 0; w < words_per_row_; ++w) keep[w] = ~covered[w];
  return splice_columns(keep);
}

}  // namespace multihit
