#pragma once
// Host-side multithreaded sweep: the real combinatorial workload on real
// silicon.
//
// The simulated cluster partitions the λ space with the equi-area scheduler
// and *models* time; this sweep runs the same enumeration kernels over the
// same λ space with actual std::threads, pulling chunks sized from the space
// off a lock-free ChunkQueue (core/workqueue.hpp) so stragglers self-balance
// — the planar_mt.cpp shape: atomic work counter, per-worker accumulation,
// merge at the end. Workers share nothing else: the kernel's fold scratch is
// thread-local, and of an Engine's carried bounds a chunk writes only the
// whole blocks its range holds.
//
// Determinism: each worker keeps one running best over the chunks it
// evaluates, and the final fold merges the workers' bests. merge_results is
// associative and commutative under the strict (F desc, rank asc) total
// order of EvalResult, so selections are bit-identical across thread counts,
// chunk claim orders and backends (tests/test_hostsweep.cpp); what is pruned
// depends on the data and the worker count, which fix the chunks.

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

/// Chunks per worker in a multi-worker sweep: enough that early finishers
/// take over a slow worker's share, few enough that few chunks restart
/// their incumbent from the greedy floor.
inline constexpr std::uint64_t kChunksPerWorker = 4;

/// The sweep runs Scheme{hits, hits-1} — every loop but the innermost
/// flattened, the paper's winning shape.
struct HostSweepOptions {
  std::uint32_t hits = 4;       ///< any h >= 2 with C(genes, h) in u64
  std::uint32_t threads = 0;    ///< worker count; 0 = hardware_concurrency
  /// Optional wall-clock profiler (obs/hostprof.hpp). Null reads no clock;
  /// non-null adds two steady_clock reads per evaluated chunk (a chunk the
  /// carried bounds skip whole reads none), one per worker and three per
  /// sweep, and never changes which combination is selected — profiled and
  /// unprofiled sweeps are bit-identical (pinned by tests and the ci.sh
  /// host-profiler smoke).
  obs::HostProfiler* profiler = nullptr;
};

/// Wall-clock-free accounting for one sweep (all deterministic).
struct HostSweepTelemetry {
  std::uint32_t threads = 0;            ///< workers actually launched (post-clamp)
  std::uint32_t threads_requested = 0;  ///< workers asked for, before the chunk-count clamp
  std::uint64_t chunk_size = 0;         ///< λ indices per queue grab (derived)
  std::uint64_t chunks = 0;             ///< chunks distributed
  std::uint64_t candidates = 0;         ///< evaluated chunks with a valid best
  KernelCounts counts;                  ///< summed over workers in index order

  /// Accumulates another sweep's accounting (one greedy run = one sweep per
  /// iteration). Counters sum; the configuration fields (threads, chunk
  /// size) take the latest sweep's values.
  HostSweepTelemetry& operator+=(const HostSweepTelemetry& other) noexcept {
    threads = other.threads;
    threads_requested = other.threads_requested;
    chunk_size = other.chunk_size;
    chunks += other.chunks;
    candidates += other.candidates;
    counts += other.counts;
    return *this;
  }
};

/// One maxF evaluation over the full λ space of Scheme{hits, hits-1},
/// distributed over host threads. When ctx.carried holds an Engine's
/// carried bounds, the sweep readies them, skips a chunk whose blocks all
/// bound below the greedy floor without evaluating it, and has every other
/// chunk's kernel use and lower them (chunks hold disjoint, whole blocks).
/// Throws std::invalid_argument when the gene counts differ or the scheme
/// is invalid (see scheme_threads).
EvalResult host_sweep_find_best(const BitMatrix& tumor, const BitMatrix& normal,
                                const FContext& ctx, const HostSweepOptions& options,
                                HostSweepTelemetry* telemetry = nullptr);

/// Evaluator running the threaded sweep each greedy iteration — drop-in for
/// make_serial_evaluator/make_kernel_evaluator in run_greedy. When
/// `telemetry_sink` is non-null, every evaluation accumulates its sweep
/// accounting into it (operator+=), so engine runs through this evaluator
/// report the kernel's combination and pruned counts; the sink
/// must outlive the evaluator and is not thread-safe across concurrent
/// evaluations (the greedy loop is sequential).
Evaluator make_host_sweep_evaluator(HostSweepOptions options,
                                    HostSweepTelemetry* telemetry_sink = nullptr);

}  // namespace multihit
