#pragma once
// Lock-free chunked work distribution over a linear λ index range.
//
// The shape is the bit-parallel exhaustive-search idiom (cf. Dimitrov's
// planar_mt.cpp): one atomic counter hands out fixed-size chunks of a
// linearized combination space, workers pull until the counter passes the
// end, and each worker accumulates its own best candidate — no shared state
// besides the counter, no locks, no false sharing on results. Determinism
// does not depend on arrival order: chunks are identified by their begin
// index, and the final merge folds candidates in index order.

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace multihit {

class ChunkQueue {
 public:
  /// Distributes [0, end) in chunks of `chunk` indices (the final chunk may
  /// be short; a chunk of 0 runs as 1).
  ChunkQueue(std::uint64_t end, std::uint64_t chunk) noexcept
      : end_(end), chunk_(chunk < 1 ? 1 : chunk) {}

  /// Claims the next chunk. Returns false when the range is exhausted.
  /// Wait-free: one fetch_add per claim.
  bool next(std::uint64_t* chunk_begin, std::uint64_t* chunk_end) noexcept {
    const std::uint64_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= chunk_count()) return false;
    *chunk_begin = index * chunk_;
    *chunk_end = *chunk_begin + std::min(chunk_, end_ - *chunk_begin);  // no u64 wrap
    return true;
  }

  std::uint64_t chunk_size() const noexcept { return chunk_; }

  std::uint64_t chunk_count() const noexcept { return end_ / chunk_ + (end_ % chunk_ != 0); }

  /// next() calls so far (racy while workers run; exact after they join):
  /// the host profiler's starvation count, read for free off the cursor.
  /// Each worker's drain loop fails exactly once, so at quiescence
  /// polls() == chunk_count() + workers, an invariant the hostprof
  /// crosscheck pins.
  std::uint64_t polls() const noexcept { return cursor_.load(std::memory_order_relaxed); }

 private:
  const std::uint64_t end_;
  const std::uint64_t chunk_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace multihit
