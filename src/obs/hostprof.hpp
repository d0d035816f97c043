#pragma once
// Wall-clock profiler for the host-threaded sweep (core/hostsweep.hpp) — the
// one obs layer over a real clock. It keeps no format of its own; it records
// into the two every simulated run already emits:
//
//   * Wall clock goes into a Chrome trace (obs/trace.hpp) in steady-clock
//     seconds since the profiler was built. A sweep only stores its raw clock
//     pairs; trace() turns them into spans afterwards, so building the trace
//     adds nothing to the sweep's own wall clock. Lane i ("worker i") holds one
//     claim and one evaluate span per evaluated chunk and one tail_idle span
//     per sweep; kHostSweepLane ("host sweep") holds one sweep span per sweep
//     with its merge span nested inside. `obstool analyze` reads it as it
//     reads a simulated trace: per-worker imbalance with the straggler lane,
//     and "worker i;evaluate" folded stacks.
//   * Exact counts go into unlabeled hostsweep.* counters of the caller's
//     MetricsRegistry. They repeat across runs and bitops backends of one
//     configuration, so `obstool diff` compares them exactly.
//
// Collection is single-threaded: workers fill private HostWorkerSample
// structs (core/hostsweep.cpp) and the orchestrating thread hands them over
// after join, so the profiler takes no locks.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace multihit::obs {

using HostClock = std::chrono::steady_clock;

/// Lane of the sweep and merge spans. Worker slot i traces on lane i, so
/// `obstool analyze` takes exactly the workers as its rank lanes.
inline constexpr std::uint32_t kHostSweepLane = kEngineLane;

/// What one worker did in one sweep. Filled privately by the worker thread
/// (its own clock reads, its own thread-local bitops counters).
struct HostWorkerSample {
  std::uint64_t chunks = 0;
  /// Of those, chunks the carried bounds skipped whole: no evaluation and no
  /// clock read, so they have no spans.
  std::uint64_t skipped_chunks = 0;
  std::uint64_t candidates = 0;  ///< evaluated chunks with a valid best
  std::uint64_t combinations = 0;
  std::uint64_t and2_calls = 0;
  std::uint64_t and_rows_calls = 0;
  HostClock::time_point started;  ///< before the first claim
  /// (claimed, evaluated) per evaluated chunk. A chunk's claim span runs from
  /// the previous chunk's evaluated time (the first from `started`) to
  /// `claimed`, its evaluate span from `claimed` to `evaluated`; the sweep's
  /// tail_idle span runs from the last evaluated time to the join.
  std::vector<std::pair<HostClock::time_point, HostClock::time_point>> evaluated;
};

/// Sweep-level facts the orchestrator knows at launch; all but `started`
/// become the sweep span's args.
struct HostSweepSetup {
  std::uint32_t workers = 0;
  std::uint64_t chunk_size = 0;
  std::uint64_t lambda_end = 0;
  std::uint32_t hits = 0;
  std::string scheme;
  std::string backend;  ///< bitops backend name active during the sweep
  HostClock::time_point started;
};

/// Sweep-level facts known once the workers joined and their bests merged.
struct HostSweepClose {
  HostClock::time_point joined;
  HostClock::time_point merged;
  std::uint64_t polls = 0;  ///< ChunkQueue::polls() at quiescence
};

/// Per-sweep wall clock (one host_sweep_find_best call; a greedy run makes
/// one per iteration).
struct HostSweepStat {
  double wall_seconds = 0.0;   ///< launch to merged result
  double merge_seconds = 0.0;  ///< join to merged result
};

/// Running wall-clock sums of the trace, for callers that take a figure
/// without reading spans back.
struct HostProfile {
  std::vector<HostSweepStat> sweeps;
  double eval_seconds = 0.0;  ///< evaluate spans summed over workers and sweeps
};

/// The collection seam core/hostsweep.cpp drives. All methods are called
/// from the orchestrating thread only, one sweep at a time: begin_sweep,
/// record_worker once per launched worker slot, end_sweep. Calls out of
/// that order throw std::logic_error.
class HostProfiler {
 public:
  /// Counters go to `metrics` when non-null; it must outlive the profiler.
  explicit HostProfiler(MetricsRegistry* metrics = nullptr);
  HostProfiler(const HostProfiler&) = delete;
  HostProfiler& operator=(const HostProfiler&) = delete;

  void begin_sweep(HostSweepSetup setup);
  void record_worker(std::uint32_t worker, const HostWorkerSample& sample);
  void end_sweep(const HostSweepClose& close);

  /// The Chrome trace of every sweep ended so far, built on each call.
  Tracer trace() const;
  const HostProfile& profile() const noexcept { return profile_; }

 private:
  enum Tally : std::size_t {
    kSweeps, kChunks, kSkippedChunks, kClaims, kEmptyPolls,
    kCandidates, kCombinations, kAnd2Calls, kAndRowsCalls, kTallies
  };
  enum class Phase : std::uint32_t { kClaim, kEvaluate, kTailIdle, kSweep, kMerge };
  /// One span as recorded: raw clock readings, turned into seconds by trace().
  struct Span {
    std::uint32_t lane = 0;
    Phase phase = Phase::kClaim;
    HostClock::time_point begin, end;
  };
  void add(Tally tally, std::uint64_t n);
  double seconds(HostClock::time_point t) const;

  HostClock::time_point origin_;
  std::array<Counter*, kTallies> counters_{};
  HostProfile profile_;
  std::vector<Span> spans_;             ///< in recording order, per lane chronological
  std::vector<HostSweepSetup> setups_;  ///< per sweep, for its span's args
  std::uint32_t workers_ = 0;           ///< worker lanes (most workers of any sweep)
  bool in_sweep_ = false;
  std::uint64_t sweep_chunks_ = 0;
  /// (worker slot, tail_idle start) per worker recorded in the open sweep.
  std::vector<std::pair<std::uint32_t, HostClock::time_point>> idle_from_;
};

}  // namespace multihit::obs
