#pragma once
// Functional V100 device model.
//
// Executes the paper's two-kernel pipeline over a thread-range partition:
//
//   kernel 1 (maxF): every thread evaluates its combinations; each
//     512-thread block performs a single-stage reduction and emits ONE
//     candidate — this is the §III-E optimization that shrinks the candidate
//     list by the block size (24.3 TB -> 47.5 GB at paper scale).
//   kernel 2 (parallelReduceMax): a multi-stage pairwise tree over the
//     per-block candidates yields the device's single best combination.
//
// Execution is functionally exact (the real bit-matrix kernels run on the
// real data); traffic is priced once per launch by scheme_stats over the
// partition, and timing comes from the perfmodel over those stats.

#include <cstdint>
#include <vector>

#include "bitmat/bitmatrix.hpp"
#include "core/schemes.hpp"
#include "gpusim/perfmodel.hpp"
#include "sched/schedule.hpp"

namespace multihit::obs {
class MetricsRegistry;
}  // namespace multihit::obs

namespace multihit {

/// Outcome of one device launch over a partition.
struct DeviceRunResult {
  EvalResult best;          ///< device-level winner
  KernelStats stats;        ///< modeled ops/traffic (scheme_stats)
  std::uint64_t blocks = 0; ///< maxF blocks launched
  std::uint64_t candidate_bytes = 0;  ///< per-block candidate list footprint
  GpuTiming timing;         ///< modeled execution profile
};

class GpuDevice {
 public:
  explicit GpuDevice(DeviceSpec spec = DeviceSpec::v100()) : spec_(spec) {}

  const DeviceSpec& spec() const noexcept { return spec_; }

  /// Runs the maxF + parallelReduceMax pipeline over threads
  /// [partition.begin, partition.end) of `scheme`.
  DeviceRunResult run(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                      Scheme scheme, const Partition& partition, const MemOpts& opts = {}) const;

 private:
  DeviceSpec spec_;
};

/// The multi-stage pairwise reduction of kernel 2, exposed for testing:
/// repeatedly merges element pairs until one remains. Associativity of
/// merge_results guarantees the same winner as a linear scan.
EvalResult parallel_reduce_max(std::vector<EvalResult> candidates);

/// Bytes per stored candidate: four gene ids + one F value (paper: 20 B).
inline constexpr std::uint64_t kCandidateBytes = 20;

/// Records one pipeline launch (maxF + parallelReduceMax, priced by
/// scheme_stats into `stats` and `timing`) into `metrics`. Called by the
/// drivers that place the launch on the simulated clock: the functional
/// cluster run and the analytic model. `placed_seconds` is the launch's
/// jittered (noise, straggle) duration; every other value is the
/// un-jittered device model.
///
/// The gpu.* series it feeds, one add or observe per launch in launch order:
///  - counters kernel_launches (2 per pipeline), blocks, combinations,
///    word_ops, candidate_bytes, launches_memory_bound /
///    launches_compute_bound;
///  - dram_bytes, the counted global-memory bytes before L2 reuse (the
///    gpu_kernel spans' global_bytes arg); dram_bytes_post_l2, what reaches
///    DRAM after L2 / row-broadcast reuse; prefetch_bytes, the MemOpt1/2
///    prefetch-served bytes;
///  - placed_seconds and stall_seconds{reason}, placed seconds times the
///    Fig. 6c stall fraction: stall_seconds / placed_seconds is the
///    time-weighted stall share;
///  - histograms kernel_seconds (modeled), occupancy, mem_efficiency,
///    dram_throughput_bytes_per_sec and stall_fraction{reason}.
/// Never affects results or modeled times.
void record_launch(obs::MetricsRegistry& metrics, const DeviceSpec& spec,
                   const KernelStats& stats, const GpuTiming& timing, std::uint64_t blocks,
                   double placed_seconds);

}  // namespace multihit
