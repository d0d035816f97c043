#pragma once
// Functional distributed multi-hit discovery on the simulated Summit.
//
// One greedy iteration, distributed (paper §III):
//   1. rank 0 builds the equi-area schedule over all GPUs (O(G), §III-C);
//   2. every GPU runs maxF + parallelReduceMax over its partition;
//   3. each node merges its six device candidates on the host;
//   4. a binomial-tree MPI reduce carries one 20-byte candidate per rank to
//      rank 0 (§III-E), which broadcasts the winner;
//   5. every rank splices the covered tumor samples out of its local matrix
//      copy (BitSplicing) and the loop repeats.
//
// The run is functionally exact — the same combinations are selected as by
// the serial engine — while clocks, utilization, and traffic are modeled.
//
// Fault tolerance (src/fault): a DistributedOptions::faults plan injects
// rank crashes, stragglers, message drops, and whole-allocation aborts.
// Recovery preserves the determinism invariant — any fault plan yields
// greedy selections bit-identical to the fault-free serial reference, only
// with a longer simulated wall clock:
//
//   crash    -> survivors time out on the dead rank (detection window),
//               rank 0 rebuilds the equi-area schedule over the surviving
//               GPUs, and the dead rank's λ ranges are re-run as the
//               intersection of the new partitions with the lost ranges
//               (merge_results is associative + commutative with invalid as
//               identity, so the re-merged winner is unchanged);
//   straggle -> that rank's compute stretches; the reduce absorbs the skew;
//   drop     -> the message is retransmitted after a timeout, values intact;
//   abort    -> the run restarts from the last auto-checkpoint
//               (checkpoint_every); the replay is bit-identical, so only the
//               lost wall-clock and a fresh job launch are charged.

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/summit.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/schemes.hpp"
#include "data/dataset.hpp"
#include "fault/injector.hpp"
#include "gpusim/device.hpp"
#include "sched/schedule.hpp"

namespace multihit {

/// kMemoryAware is this repository's implementation of the paper's §V
/// future-work item 4: equi-area over traffic-reweighted workloads.
enum class SchedulerKind { kEquiDistance, kEquiArea, kMemoryAware };

/// Stable short name ("equi_distance" / "equi_area" / "memory_aware") for
/// run manifests and logs.
const char* scheduler_name(SchedulerKind kind) noexcept;

struct DistributedOptions {
  std::uint32_t hits = 4;             ///< C(genes, hits) must fit u64
  /// Loops left unflattened: the kernel is Scheme{hits, hits - inner}. The
  /// default is the paper's "flatten all but the innermost loop".
  std::uint32_t inner = 1;
  MemOpts mem_opts{.prefetch_i = true, .prefetch_j = true};
  SchedulerKind scheduler = SchedulerKind::kEquiArea;
  bool bit_splicing = true;
  std::uint32_t max_iterations = 0;   ///< 0 = run to full coverage
  /// Deterministic fault injection; an empty plan runs the happy path.
  FaultPlan faults;
  /// Auto-checkpoint period in greedy iterations (0 = off). Needed for
  /// kJobAbort recovery; crashes/stragglers/drops recover without it.
  std::uint32_t checkpoint_every = 0;
  /// Optional observability recorder. When set, the run lands phase spans on
  /// per-rank lanes (compute, GPU kernels, reduce, broadcast, recovery,
  /// splice, checkpoints) plus cluster.*/comm.*/gpu.*/engine.* metrics.
  /// Null (the default) leaves selections and modeled times bit-identical —
  /// instrumentation reads simulated clocks, it never advances them.
  obs::Recorder* recorder = nullptr;
};

/// Telemetry for one distributed greedy iteration.
struct IterationTelemetry {
  EvalResult best;
  double iteration_time = 0.0;             ///< modeled wall seconds
  std::vector<GpuTiming> gpus;              ///< one per GPU, jitter applied
  std::vector<double> rank_compute;         ///< one per node (MPI rank)
  std::vector<double> rank_comm;
  std::uint64_t candidate_bytes_total = 0;  ///< across all GPUs (§III-E list)
  std::uint64_t combinations = 0;
};

struct ClusterRunResult {
  GreedyResult greedy;
  std::vector<IterationTelemetry> iterations;
  double schedule_time = 0.0;  ///< modeled O(G) scheduler cost (initial + fault re-partitions)
  double total_time = 0.0;     ///< job overhead + schedule + iterations + checkpoints + aborts

  // --- fault/recovery telemetry (all zero for an empty fault plan) ---
  std::vector<FaultRecord> fault_events;  ///< faults that fired, in order
  /// Modeled seconds lost to faults: detection windows, recovery re-runs,
  /// and aborted allocations. Crash/straggler/drop costs are already inside
  /// the iteration times; abort penalties are added to total_time directly.
  double recovery_time = 0.0;
  double checkpoint_time = 0.0;           ///< modeled snapshot-write seconds
  std::uint32_t checkpoints_taken = 0;
  std::uint32_t ranks_lost = 0;
  /// Newest auto-checkpoint (present when checkpoint_every fired at least
  /// once) — resuming from it replays the remaining iterations identically.
  std::optional<CheckpointState> last_checkpoint;
};

class ClusterRunner {
 public:
  explicit ClusterRunner(SummitConfig config) : config_(config) {}

  const SummitConfig& config() const noexcept { return config_; }

  /// Runs the full distributed greedy cover on `data` (functional; needs a
  /// laptop-enumerable G). Throws std::invalid_argument when
  /// Scheme{hits, hits - inner} is not a valid scheme over the data's genes.
  ClusterRunResult run(const Dataset& data, const DistributedOptions& options) const;

 private:
  SummitConfig config_;
};

}  // namespace multihit
