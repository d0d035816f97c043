#pragma once
// Paper-scale analytic runs.
//
// At G = 19411 the 4-hit space holds ~5.9e15 combinations — nothing
// enumerates that here. But every quantity the wall-clock depends on is
// analytically available: exact per-partition combination/traffic counts
// (scheme_stats, core/schemes.hpp), the occupancy/roofline device model, and the
// binomial-tree communication model. This module composes them into modeled
// whole-run times for any fleet size, which is what regenerates the paper's
// scaling and utilization figures at full scale.
//
// Greedy iterations beyond the first shrink the tumor matrix by BitSplicing.
// Real coverage trajectories are data-dependent; the model uses a geometric
// coverage profile (fraction of remaining tumor samples covered per
// iteration) with the default calibrated from this repository's functional
// runs on planted data.

#include <cstdint>
#include <vector>

#include "cluster/distributed.hpp"
#include "cluster/summit.hpp"
#include "core/schemes.hpp"

namespace multihit {

struct ModelInputs {
  std::uint32_t genes = 19411;          ///< BRCA scale by default
  std::uint32_t tumor_samples = 911;
  std::uint32_t normal_samples = 520;
  std::uint32_t hits = 4;               ///< C(genes, hits) must fit u64
  /// Loops left unflattened: the kernel is Scheme{hits, hits - inner}. The
  /// default is the paper's "flatten all but the innermost loop" (3x1 at 4
  /// hits); 0 gives one combination per thread.
  std::uint32_t inner = 1;
  MemOpts mem_opts{.prefetch_i = true, .prefetch_j = true};
  SchedulerKind scheduler = SchedulerKind::kEquiArea;
  bool bit_splicing = true;             ///< false => widths never shrink
  /// Geometric coverage profile: fraction of remaining tumor samples the
  /// best combination covers each iteration.
  double coverage_per_iteration = 0.45;
  std::uint32_t max_iterations = 0;     ///< 0 = run until < 1 sample remains
  bool first_iteration_only = false;    ///< the paper's weak-scaling protocol
  /// Mean time between failures of one node, in hours (0 = fault-free model,
  /// the paper's implicit assumption). Summit-class machines sit around
  /// 20-30 years per node, which still means a failure every few hours
  /// across 1000 nodes.
  double rank_mtbf_hours = 0.0;
  /// Auto-checkpoint period in modeled seconds (0 = no checkpointing).
  double checkpoint_every_seconds = 0.0;
  /// Optional observability context. The analytic path prices launches
  /// without a GpuDevice, so only the kernel profiler is fed (one
  /// KernelProfile per modeled launch when recorder->profile is enabled);
  /// metrics/trace stay untouched. Never affects modeled times.
  obs::Recorder* recorder = nullptr;
};

struct ModeledIteration {
  double time = 0.0;
  std::uint32_t tumor_samples = 0;          ///< width at this iteration
  std::vector<GpuTiming> gpus;              ///< jitter applied
  std::vector<double> rank_compute;
  std::vector<double> rank_comm;
  std::uint64_t candidate_bytes_total = 0;
};

struct ModeledRun {
  double total_time = 0.0;      ///< job overhead + schedule + iterations + fault/checkpoint overheads
  double schedule_time = 0.0;
  std::vector<ModeledIteration> iterations;
  /// Expected rank failures over the run (fault-free duration x fleet size /
  /// MTBF); zero when ModelInputs::rank_mtbf_hours is zero.
  double expected_failures = 0.0;
  /// Expected seconds lost to failures: each costs a detection window, a
  /// schedule rebuild, and the re-run of the dead rank's share of one
  /// iteration spread over the survivors.
  double fault_overhead = 0.0;
  /// Seconds spent writing periodic snapshots (the per-rank matrix copy over
  /// SummitConfig::checkpoint_bytes_per_sec, all ranks concurrent).
  double checkpoint_overhead = 0.0;
};

/// Models a full distributed run on `config` for `inputs`.
ModeledRun model_cluster_run(const SummitConfig& config, const ModelInputs& inputs);

/// Models the same workload on a single GPU (the paper's baseline for the
/// ~7192x speedup claim): one device, no MPI, no job overhead.
double model_single_gpu_time(const DeviceSpec& device, const ModelInputs& inputs);

/// Models the sequential CPU implementation (the paper's 13860-minute
/// 3-hit / ">500 year" 4-hit baselines): pure op count over a scalar rate.
double model_single_cpu_time(const ModelInputs& inputs, double cpu_word_rate = 2.5e9);

/// Derives the geometric coverage fraction that best matches a functional
/// greedy run (mean per-iteration fraction of remaining tumor samples
/// covered). Feed into ModelInputs::coverage_per_iteration to tie
/// paper-scale projections to observed coverage trajectories. Returns the
/// default 0.45 for an empty run.
double calibrate_coverage(const GreedyResult& result);

}  // namespace multihit
