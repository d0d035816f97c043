#pragma once
// Wall-clock profiler for the host-threaded sweep — the first obs layer over
// real silicon rather than the simulated clock.
//
// The simulated cluster gets NVPROF-style profiles for free because its time
// is modeled; the host sweep (core/hostsweep.hpp) runs on actual threads, so
// its numbers are nondeterministic wall clock. This layer establishes the
// pattern every future real-hardware layer follows:
//
//   * structural/counted fields (chunk, claim, candidate, combination, and
//     dispatched bitops-call totals) are exact and deterministic — they land
//     in the report's "workload"/"totals" sections, are projected out by
//     hostprof_deterministic(), and are byte-compared across runs and
//     backends in scripts/ci.sh;
//   * raw timings (busy/idle breakdowns, claim-latency histograms, the
//     per-worker table) are quarantined in the report's wall-clock sections
//     and never gated on value — only on shape.
//
// Collection is deliberately single-threaded: workers fill private
// HostWorkerSample structs (core/hostsweep.cpp), and the orchestrating
// thread submits them after join. The profiler itself takes no locks and is
// touched by exactly one thread, so the TSan lane has nothing to find here —
// the interesting races live in the ChunkQueue and the bitops counting
// tables, both covered by the tsan preset.
//
// Rendering round-trips exactly: hostprof_report() is a pure function of the
// stored fields, and hostprof_from_json() recovers every stored field, so
// parse -> re-render reproduces the in-process document byte for byte
// (doubles survive via json_number's shortest round-trip form). Derived
// values (ratios, imbalance stats, histogram totals) are recomputed at
// render time from stored fields, never stored independently.

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/json.hpp"

namespace multihit::obs {

/// Raised by hostprof_from_json on wrong-schema or ill-shaped documents.
class HostprofError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Claim-latency histogram bucket upper bounds (seconds); one extra bucket
/// catches everything above the last bound. Fixed log-spaced bounds keep the
/// report schema deterministic even though the counts are wall clock.
inline constexpr std::array<double, 7> kClaimBucketBounds = {1e-7, 1e-6, 1e-5, 1e-4,
                                                             1e-3, 1e-2, 1e-1};
inline constexpr std::size_t kClaimBuckets = kClaimBucketBounds.size() + 1;

/// Bucket index for one observed claim latency.
std::size_t claim_bucket(double seconds) noexcept;

/// Dispatched bitops call counts, mirrored as a plain struct so core can
/// hand deltas across without obs depending on the bitmat library.
struct HostBitopsCalls {
  std::uint64_t popcount_row = 0;
  std::uint64_t and2 = 0;
  std::uint64_t and3 = 0;
  std::uint64_t and4 = 0;
  std::uint64_t and_rows = 0;
  std::uint64_t and_rows_inplace = 0;
  std::uint64_t andnot2 = 0;
  std::uint64_t andnot_rows = 0;

  std::uint64_t total() const noexcept {
    return popcount_row + and2 + and3 + and4 + and_rows + and_rows_inplace + andnot2 +
           andnot_rows;
  }
  HostBitopsCalls& operator+=(const HostBitopsCalls& other) noexcept {
    popcount_row += other.popcount_row;
    and2 += other.and2;
    and3 += other.and3;
    and4 += other.and4;
    and_rows += other.and_rows;
    and_rows_inplace += other.and_rows_inplace;
    andnot2 += other.andnot2;
    andnot_rows += other.andnot_rows;
    return *this;
  }
};

/// What one worker measured over one sweep. Filled privately by the worker
/// thread (its own steady_clock spans, its own thread-local bitops
/// counters), submitted to the profiler by the orchestrator after join.
struct HostWorkerSample {
  std::uint64_t chunks = 0;
  std::uint64_t candidates = 0;
  std::uint64_t combinations = 0;
  std::uint64_t empty_polls = 0;
  HostBitopsCalls calls;
  double claim_seconds = 0.0;      ///< time between finishing a chunk and owning the next
  double eval_seconds = 0.0;       ///< time inside chunk evaluation
  double tail_idle_seconds = 0.0;  ///< queue-drained to last-worker-join gap
  std::array<std::uint64_t, kClaimBuckets> claim_histogram{};
  std::uint64_t arena_peak_words = 0;
  std::uint64_t arena_capacity_words = 0;
  std::uint64_t arena_blocks = 0;
};

/// One worker slot aggregated across all profiled sweeps (slot i of sweep k
/// and slot i of sweep k+1 are different std::threads but the same logical
/// lane — the per-worker table and the folded flamegraph key on the slot).
struct HostWorkerStat : HostWorkerSample {
  std::uint32_t worker = 0;
  std::uint64_t sweeps = 0;  ///< sweeps in which this slot was launched
};

/// Per-sweep record (one host_sweep_find_best call; a greedy run produces
/// one per iteration).
struct HostSweepStat {
  std::uint32_t index = 0;
  std::uint32_t workers = 0;
  std::uint64_t chunk_size = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t lambda_end = 0;
  std::uint64_t chunks = 0;
  std::uint64_t candidates = 0;   ///< candidates merged (== valid chunks)
  std::uint64_t combinations = 0;
  std::uint64_t polls = 0;        ///< queue cursor at quiescence
  double wall_seconds = 0.0;      ///< launch to merged-result
  double merge_seconds = 0.0;     ///< deterministic candidate sort + fold
};

/// Everything the profiler accumulated. All fields are stored (not derived)
/// so a parsed profile re-renders byte-identically.
struct HostProfile {
  std::uint32_t hits = 0;
  std::string scheme;
  std::string backend;  ///< bitops backend name active during the sweeps
  bool bitops_counted = false;
  std::uint64_t chunk_size = 0;
  std::uint64_t lambda_end = 0;
  std::uint32_t workers = 0;  ///< worker slots (max across sweeps)

  // Deterministic totals.
  std::uint64_t total_chunks = 0;
  std::uint64_t total_claims = 0;
  std::uint64_t total_empty_polls = 0;
  std::uint64_t total_candidates = 0;
  std::uint64_t total_combinations = 0;
  HostBitopsCalls total_calls;
  std::uint64_t arena_peak_words_max = 0;

  // Wall-clock totals (quarantined: never byte-compared across runs).
  double wall_seconds = 0.0;
  double eval_seconds = 0.0;
  double claim_seconds = 0.0;
  double merge_seconds = 0.0;
  double tail_idle_seconds = 0.0;

  std::vector<HostWorkerStat> worker_stats;  ///< indexed by worker slot
  std::vector<HostSweepStat> sweeps;

  bool empty() const noexcept { return sweeps.empty(); }
};

/// Sweep-level facts the orchestrator knows before launching workers.
struct HostSweepSetup {
  std::uint32_t workers = 0;
  std::uint64_t chunk_size = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t lambda_end = 0;
  std::uint32_t hits = 0;
  std::string scheme;
  std::string backend;
  bool bitops_counted = false;
};

/// Sweep-level facts known only after workers join and candidates merge.
/// (Chunk/candidate/combination counts come from the worker samples.)
struct HostSweepClose {
  double wall_seconds = 0.0;
  double merge_seconds = 0.0;
  std::uint64_t polls = 0;
};

/// The collection seam core/hostsweep.cpp drives. All methods are called
/// from the orchestrating thread only; one sweep at a time.
class HostProfiler {
 public:
  HostProfiler() = default;
  HostProfiler(const HostProfiler&) = delete;
  HostProfiler& operator=(const HostProfiler&) = delete;

  /// Whether profiled sweeps should also swap the bitops dispatch to the
  /// counting tables (exact deterministic per-op call totals; measured cost
  /// is inside the <5% BENCH_hostprof overhead gate). core reads this.
  bool count_bitops = true;

  void begin_sweep(const HostSweepSetup& setup);
  void record_worker(std::uint32_t worker, const HostWorkerSample& sample);
  void end_sweep(const HostSweepClose& close);

  const HostProfile& profile() const noexcept { return profile_; }

 private:
  HostProfile profile_;
  bool in_sweep_ = false;
  HostSweepStat current_;
};

// ------------------------------------------------------------------ rendering

/// The multihit.hostprof.v1 document: deterministic "workload"/"totals"
/// sections first, then the quarantined wall-clock sections ("wallclock",
/// "backend" attribution, "imbalance" reusing the analyze-layer PhaseStat
/// shape, "claim_latency", per-"workers"/"sweeps" tables).
JsonValue hostprof_report(const HostProfile& profile);

/// Reverses hostprof_report exactly; throws HostprofError on wrong-schema or
/// ill-shaped documents. hostprof_report(hostprof_from_json(doc)) is
/// byte-identical to the original dump — the offline-replay gate.
HostProfile hostprof_from_json(const JsonValue& doc);

/// The deterministic projection: schema + workload + totals only. Runs of
/// the same configuration — any wall clock, any bitops backend — produce
/// byte-identical projections; scripts/ci.sh cmp's them.
JsonValue hostprof_deterministic(const HostProfile& profile);

/// Internal-consistency checks (totals vs per-worker and per-sweep sums,
/// histogram mass vs poll counts, queue poll invariants). Returns mismatch
/// descriptions; non-empty means a corrupt or hand-edited document, and
/// `obstool hostprof` exits 1.
std::vector<std::string> hostprof_crosscheck(const HostProfile& profile);

/// Per-worker imbalance over one wall-clock quantity, in the analyze layer's
/// PhaseStat shape (lanes = worker slots, straggler_lane = slot index).
PhaseStat hostprof_imbalance(const HostProfile& profile, const std::string& phase);

/// Collapsed-stack flamegraph lines ("hostsweep;worker 0;evaluate <µs>"),
/// same format folded_stacks() emits, so the existing obstool folded
/// pipeline and flamegraph.pl consume it unchanged.
std::string hostprof_folded(const HostProfile& profile);

/// Human-readable summary (`obstool hostprof` output); `summary` truncates
/// the per-worker table.
std::string hostprof_text(const HostProfile& profile, bool summary);

}  // namespace multihit::obs
