#pragma once
// Host-side multithreaded sweep: the real combinatorial workload on real
// silicon.
//
// The simulated cluster partitions the λ space with the equi-area scheduler
// and *models* time; this sweep runs the same enumeration kernels over the
// same λ space with actual std::threads, pulling fixed-size chunks off a
// lock-free ChunkQueue (core/workqueue.hpp) so stragglers self-balance —
// the planar_mt.cpp shape: atomic work counter, per-worker accumulation,
// merge at the end.
//
// Determinism: every chunk produces at most one candidate tagged with its
// chunk-begin λ; workers append to private lists, and the final fold sorts
// candidates by that linear index before merging. Together with the strict
// (F desc, rank asc) total order of EvalResult, selections are bit-identical
// across thread counts, chunk sizes, and backends — pinned by
// tests/test_hostsweep.cpp against both the serial reference and the
// simulated-cluster path.

#include <cstdint>

#include "bitmat/bitmatrix.hpp"
#include "core/engine.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"
#include "core/schemes.hpp"

namespace multihit::obs {
class HostProfiler;
}

namespace multihit {

/// The sweep runs Scheme{hits, hits-1} — every loop but the innermost
/// flattened, the paper's winning shape — and accounts its KernelStats with
/// both prefetch optimizations on.
struct HostSweepOptions {
  std::uint32_t hits = 4;       ///< any h >= 2 with C(genes, h) in u64
  std::uint32_t threads = 0;    ///< worker count; 0 = hardware_concurrency
  std::uint64_t chunk = 1024;   ///< λ indices per queue grab
  /// Optional wall-clock profiler (obs/hostprof.hpp). Null keeps the worker
  /// loop on its original untimed path; non-null adds two steady_clock reads
  /// per chunk and never changes which combination is selected — profiled
  /// and unprofiled sweeps are bit-identical (pinned by tests and the ci.sh
  /// hostprof smoke).
  obs::HostProfiler* profiler = nullptr;
};

/// Wall-clock-free accounting for one sweep (all deterministic).
struct HostSweepTelemetry {
  std::uint32_t threads = 0;            ///< workers actually launched (post-clamp)
  std::uint32_t threads_requested = 0;  ///< workers asked for, before the chunk-count clamp
  std::uint64_t chunk_size = 0;         ///< λ indices per queue grab actually used
  std::uint64_t chunks = 0;             ///< chunks distributed
  std::uint64_t candidates = 0;         ///< valid per-chunk candidates merged
  std::uint64_t arena_blocks = 0;       ///< heap blocks across all worker arenas
  KernelStats stats;                    ///< summed over workers in index order

  /// Accumulates another sweep's accounting (one greedy run = one sweep per
  /// iteration). Counters sum; the configuration fields (threads, chunk
  /// size) take the latest sweep's values.
  HostSweepTelemetry& operator+=(const HostSweepTelemetry& other) noexcept {
    threads = other.threads;
    threads_requested = other.threads_requested;
    chunk_size = other.chunk_size;
    chunks += other.chunks;
    candidates += other.candidates;
    arena_blocks += other.arena_blocks;
    stats += other.stats;
    return *this;
  }
};

/// One maxF evaluation over the full λ space of Scheme{hits, hits-1},
/// distributed over host threads. Throws std::invalid_argument when the
/// gene counts differ or the scheme is invalid (see scheme_threads).
EvalResult host_sweep_find_best(const BitMatrix& tumor, const BitMatrix& normal,
                                const FContext& ctx, const HostSweepOptions& options,
                                HostSweepTelemetry* telemetry = nullptr);

/// Evaluator running the threaded sweep each greedy iteration — drop-in for
/// make_serial_evaluator/make_kernel_evaluator in run_greedy. When
/// `telemetry_sink` is non-null, every evaluation accumulates its sweep
/// accounting into it (operator+=), so engine runs through this evaluator
/// report the same kernel stats the serial and cluster paths do; the sink
/// must outlive the evaluator and is not thread-safe across concurrent
/// evaluations (the greedy loop is sequential).
Evaluator make_host_sweep_evaluator(HostSweepOptions options,
                                    HostSweepTelemetry* telemetry_sink = nullptr);

}  // namespace multihit
