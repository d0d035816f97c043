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
#include "obs/profile.hpp"
#include "sched/schedule.hpp"

namespace multihit::obs {
struct Recorder;
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
  explicit GpuDevice(DeviceSpec spec = DeviceSpec::v100(), obs::Recorder* recorder = nullptr)
      : spec_(spec), recorder_(recorder) {}

  const DeviceSpec& spec() const noexcept { return spec_; }

  /// Attaches (or detaches, with nullptr) an observability recorder: every
  /// launch then lands kernel metrics (gpu.kernel_launches, gpu.dram_bytes,
  /// occupancy/throughput/stall histograms) in its registry. Never affects
  /// results or modeled times.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Runs the maxF + parallelReduceMax pipeline over threads
  /// [partition.begin, partition.end) of `scheme`.
  DeviceRunResult run(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                      Scheme scheme, const Partition& partition, const MemOpts& opts = {}) const;

 private:
  void record_launch(const DeviceRunResult& result, const Partition& partition) const;

  DeviceSpec spec_;
  obs::Recorder* recorder_ = nullptr;
};

/// The multi-stage pairwise reduction of kernel 2, exposed for testing:
/// repeatedly merges element pairs until one remains. Associativity of
/// merge_results guarantees the same winner as a linear scan.
EvalResult parallel_reduce_max(std::vector<EvalResult> candidates);

/// Bytes per stored candidate: four gene ids + one F value (paper: 20 B).
inline constexpr std::uint64_t kCandidateBytes = 20;

/// DeviceSpec constants mirrored into the profile artifact's device section.
obs::ProfileDevice profile_device_info(const DeviceSpec& spec);

/// Builds the NVPROF-style launch record for one pipeline execution: modeled
/// traffic before/after L2 reuse, prefetch-served bytes, occupancy/resident
/// warps, the roofline decomposition, reduce stages, and the stall taxonomy.
/// Shared by GpuDevice and the paper-scale analytic model, which both price
/// launches with scheme_stats, so both paths profile identically. The traced
/// placement (sim_begin/sim_seconds) is left for Profiler::record /
/// annotate_last.
obs::KernelProfile kernel_profile_from(const DeviceSpec& spec, const KernelStats& stats,
                                       const GpuTiming& timing, const Partition& partition);

}  // namespace multihit
