#include "gpusim/device.hpp"

#include <algorithm>

#include "obs/recorder.hpp"

namespace multihit {

EvalResult parallel_reduce_max(std::vector<EvalResult> candidates) {
  if (candidates.empty()) return {};
  // Multi-stage tree: each stage halves the candidate count, exactly the
  // shape of the parallelReduceMax kernel's shared-memory sweeps.
  std::size_t active = candidates.size();
  while (active > 1) {
    const std::size_t half = (active + 1) / 2;
    for (std::size_t idx = 0; idx + half < active; ++idx) {
      candidates[idx] = merge_results(candidates[idx], candidates[idx + half]);
    }
    active = half;
  }
  return candidates[0];
}

DeviceRunResult GpuDevice::run(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme scheme, const Partition& partition,
                               const MemOpts& opts) const {
  DeviceRunResult result;
  const std::uint64_t span = partition.size();
  if (span == 0) return result;

  result.blocks = (span + spec_.block_size - 1) / spec_.block_size;
  std::vector<EvalResult> block_candidates;
  block_candidates.reserve(static_cast<std::size_t>(result.blocks));

  // Kernel 1: maxF with in-block single-stage reduction — one candidate per
  // 512-thread block.
  for (std::uint64_t b = 0; b < result.blocks; ++b) {
    const std::uint64_t begin = partition.begin + b * spec_.block_size;
    const std::uint64_t end = std::min<std::uint64_t>(begin + spec_.block_size, partition.end);
    block_candidates.push_back(evaluate_range(tumor, normal, ctx, scheme, begin, end));
  }
  result.candidate_bytes = result.blocks * kCandidateBytes;
  result.stats = scheme_stats(scheme, tumor.genes(), partition.begin, partition.end, opts,
                              static_cast<std::uint32_t>(tumor.words_per_row()),
                              static_cast<std::uint32_t>(normal.words_per_row()));

  // Kernel 2: multi-stage reduction over the block candidates.
  result.best = parallel_reduce_max(std::move(block_candidates));
  result.timing = model_gpu_time(spec_, result.stats, span);
  if (recorder_) record_launch(result, partition);
  return result;
}

void GpuDevice::record_launch(const DeviceRunResult& result, const Partition& partition) const {
  if (recorder_->profile.enabled()) {
    recorder_->profile.record(
        kernel_profile_from(spec_, result.stats, result.timing, partition));
  }
  obs::MetricsRegistry& m = recorder_->metrics;
  // Two launches per pipeline: maxF and parallelReduceMax.
  m.counter("gpu.kernel_launches").add(2.0);
  m.counter("gpu.blocks").add(static_cast<double>(result.blocks));
  m.counter("gpu.combinations").add(static_cast<double>(result.stats.combinations));
  m.counter("gpu.word_ops").add(static_cast<double>(result.stats.word_ops));
  m.counter("gpu.dram_bytes").add(static_cast<double>(result.stats.global_words) * 8.0);
  m.counter("gpu.candidate_bytes").add(static_cast<double>(result.candidate_bytes));
  m.counter(result.timing.memory_bound ? "gpu.launches_memory_bound"
                                       : "gpu.launches_compute_bound")
      .add(1.0);
  m.histogram("gpu.kernel_seconds").observe(result.timing.time);
  m.histogram("gpu.occupancy").observe(result.timing.occupancy);
  m.histogram("gpu.mem_efficiency").observe(result.timing.mem_efficiency);
  m.histogram("gpu.dram_throughput_bytes_per_sec").observe(result.timing.dram_throughput);
  const StallBreakdown stalls = stall_breakdown(result.timing);
  m.histogram("gpu.stall_fraction", {{"reason", "memory_dependency"}})
      .observe(stalls.memory_dependency);
  m.histogram("gpu.stall_fraction", {{"reason", "memory_throttle"}})
      .observe(stalls.memory_throttle);
  m.histogram("gpu.stall_fraction", {{"reason", "execution_dependency"}})
      .observe(stalls.execution_dependency);
  m.histogram("gpu.stall_fraction", {{"reason", "other"}}).observe(stalls.other);
}

obs::ProfileDevice profile_device_info(const DeviceSpec& spec) {
  obs::ProfileDevice info;
  info.sm_count = spec.sm_count;
  info.max_threads_per_sm = spec.max_threads_per_sm;
  info.block_size = spec.block_size;
  info.warp_size = spec.warp_size;
  info.dram_bandwidth = spec.dram_bandwidth;
  info.word_op_rate = spec.word_op_rate;
  info.l2_reuse = spec.l2_reuse;
  return info;
}

obs::KernelProfile kernel_profile_from(const DeviceSpec& spec, const KernelStats& stats,
                                       const GpuTiming& timing, const Partition& partition) {
  obs::KernelProfile k;
  k.lambda_begin = partition.begin;
  k.lambda_end = partition.end;
  k.combinations = stats.combinations;
  k.blocks = (partition.size() + spec.block_size - 1) / spec.block_size;
  k.candidate_bytes = k.blocks * kCandidateBytes;
  // parallelReduceMax halves the candidate list per stage until one remains.
  for (std::uint64_t active = k.blocks; active > 1; active = (active + 1) / 2) {
    ++k.reduce_stages;
  }
  k.word_ops = stats.word_ops;
  // gpu.dram_bytes (the metrics counter) counts what the kernel *requested*;
  // the profile splits it into the counted pre-reuse traffic and what the
  // L2 / row broadcast lets through to DRAM.
  k.global_bytes = static_cast<double>(stats.global_words) * 8.0;
  k.dram_bytes = spec.l2_reuse > 0.0 ? k.global_bytes / spec.l2_reuse : k.global_bytes;
  k.local_bytes = static_cast<double>(stats.local_words) * 8.0;
  k.occupancy = timing.occupancy;
  k.resident_warps = timing.occupancy * static_cast<double>(spec.resident_capacity()) /
                     static_cast<double>(spec.warp_size);
  k.mem_efficiency = timing.mem_efficiency;
  k.compute_seconds = timing.compute_time;
  k.memory_seconds = timing.memory_time;
  k.reduce_seconds = timing.reduce_time;
  k.overhead_seconds = timing.overhead;
  k.modeled_seconds = timing.time;
  k.memory_bound = timing.memory_bound;
  k.dram_throughput = timing.dram_throughput;
  k.arithmetic_intensity =
      k.dram_bytes > 0.0 ? static_cast<double>(stats.word_ops) / k.dram_bytes : 0.0;
  const StallBreakdown stalls = stall_breakdown(timing);
  k.stall_memory_dependency = stalls.memory_dependency;
  k.stall_memory_throttle = stalls.memory_throttle;
  k.stall_execution_dependency = stalls.execution_dependency;
  k.stall_other = stalls.other;
  return k;
}

}  // namespace multihit
