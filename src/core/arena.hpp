#pragma once
// Monotonic word arena for kernel scratch.
//
// Every evaluate_range call needs a handful of row-width fold buffers (one
// per prefix slot and matrix). Allocating them per call is invisible in a one-shot
// evaluation but becomes the dominant non-kernel cost in the host-threaded
// sweep, where a worker evaluates thousands of small λ chunks per greedy
// iteration. The arena turns that into a bump-pointer: a worker owns one
// Arena, resets it before each chunk (reset is a cursor rewind, not a free),
// and after the first chunk every allocation is served from memory that is
// already hot in that worker's cache.
//
// Not thread-safe by design — one arena per worker is the sharing model.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace multihit {

class Arena {
 public:
  Arena() = default;
  /// Pre-sizes the first block (words). 0 defers until the first allocation.
  explicit Arena(std::size_t initial_words);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Returns `n` words of uninitialized storage, valid until reset() or
  /// destruction. n == 0 returns an empty span.
  std::span<std::uint64_t> alloc_words(std::size_t n);

  /// Rewinds the cursor; existing blocks are kept for reuse, so a
  /// steady-state reset/alloc cycle performs no heap allocation.
  void reset() noexcept;

  /// Total words across all blocks.
  std::size_t capacity_words() const noexcept;

  /// Words handed out since the last reset().
  std::size_t used_words() const noexcept { return used_; }

  /// High-water mark: the largest used_words() ever reached, across resets.
  /// The host profiler reports this as the arena footprint a sweep actually
  /// needed (capacity_words() only says what was provisioned).
  std::size_t peak_words() const noexcept { return peak_; }

  /// Heap blocks ever allocated (a steady-state sweep should see this stop
  /// growing after the first chunk; tests pin that).
  std::uint64_t block_allocations() const noexcept { return block_allocations_; }

 private:
  struct Block {
    std::unique_ptr<std::uint64_t[]> words;
    std::size_t size = 0;
    std::size_t offset = 0;
  };

  Block& grow(std::size_t min_words);

  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;  ///< index of the block currently being bumped
  std::size_t used_ = 0;
  std::size_t peak_ = 0;  ///< max used_ ever reached (reset() does not clear)
  std::uint64_t block_allocations_ = 0;
};

}  // namespace multihit
