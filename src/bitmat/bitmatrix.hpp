#pragma once
// Compressed binary gene-sample matrix.
//
// Rows are genes, columns are samples; bit (g, s) is 1 iff sample s carries
// at least one mutation in gene g. Columns are packed 64 per word exactly as
// the paper's GPU representation. The matrix supports BitSplicing (§III-D):
// physically compacting away covered sample columns so later greedy
// iterations touch fewer words.

#include <cstdint>
#include <span>
#include <vector>

#include "bitmat/bitops.hpp"

namespace multihit {

/// Per-dimension caps that readers check before building a matrix from a
/// header, so a corrupt size cannot demand a multi-terabyte allocation.
inline constexpr std::uint32_t kMaxGenes = 10'000'000;
inline constexpr std::uint32_t kMaxSamples = 100'000'000;

class BitMatrix {
 public:
  BitMatrix() = default;

  /// genes x samples matrix, all zero.
  BitMatrix(std::uint32_t genes, std::uint32_t samples);

  std::uint32_t genes() const noexcept { return genes_; }
  std::uint32_t samples() const noexcept { return samples_; }
  std::uint32_t words_per_row() const noexcept { return words_per_row_; }

  /// Sets bit (gene, sample) to 1.
  void set(std::uint32_t gene, std::uint32_t sample) noexcept;

  /// Clears bit (gene, sample).
  void clear(std::uint32_t gene, std::uint32_t sample) noexcept;

  bool get(std::uint32_t gene, std::uint32_t sample) const noexcept;

  /// Packed row for one gene.
  std::span<const std::uint64_t> row(std::uint32_t gene) const noexcept;
  std::span<std::uint64_t> row(std::uint32_t gene) noexcept;

  /// Number of samples mutated in every gene of `combo` (the intersection
  /// cardinality that TP/TN are computed from).
  std::uint64_t intersect_count(std::span<const std::uint32_t> combo) const noexcept;

  /// AND of the rows of `combo` into a caller-provided buffer of
  /// words_per_row() words. Returns the intersection popcount.
  std::uint64_t combine_rows(std::span<const std::uint32_t> combo,
                             std::span<std::uint64_t> dst) const noexcept;

  /// Total number of set bits (mutation density diagnostics).
  std::uint64_t total_set_bits() const noexcept;

  /// BitSplicing: keep only the samples whose bit in `keep` (packed like a
  /// row) is 1, compacting all rows. `keep` must span words_per_row() words;
  /// bits at positions >= samples() are ignored. Returns the new sample
  /// count. O(genes x words).
  std::uint32_t splice_columns(std::span<const std::uint64_t> keep);

  /// Convenience: splice away the samples marked in `covered` (the samples
  /// containing this iteration's best combination).
  std::uint32_t splice_covered(std::span<const std::uint64_t> covered);

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  std::uint32_t genes_ = 0;
  std::uint32_t samples_ = 0;
  std::uint32_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace multihit
