#include "gpusim/device.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

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
  return result;
}

void record_launch(obs::MetricsRegistry& m, const DeviceSpec& spec, const KernelStats& stats,
                   const GpuTiming& timing, std::uint64_t blocks, double placed_seconds) {
  const double global_bytes = static_cast<double>(stats.global_words) * 8.0;
  // Two launches per pipeline: maxF and parallelReduceMax.
  m.counter("gpu.kernel_launches").add(2.0);
  m.counter("gpu.blocks").add(static_cast<double>(blocks));
  m.counter("gpu.combinations").add(static_cast<double>(stats.combinations));
  m.counter("gpu.word_ops").add(static_cast<double>(stats.word_ops));
  m.counter("gpu.dram_bytes").add(global_bytes);
  m.counter("gpu.dram_bytes_post_l2")
      .add(spec.l2_reuse > 0.0 ? global_bytes / spec.l2_reuse : global_bytes);
  m.counter("gpu.prefetch_bytes").add(static_cast<double>(stats.local_words) * 8.0);
  m.counter("gpu.candidate_bytes").add(static_cast<double>(blocks * kCandidateBytes));
  m.counter(timing.memory_bound ? "gpu.launches_memory_bound" : "gpu.launches_compute_bound")
      .add(1.0);
  m.counter("gpu.placed_seconds").add(placed_seconds);
  m.histogram("gpu.kernel_seconds").observe(timing.time);
  m.histogram("gpu.occupancy").observe(timing.occupancy);
  m.histogram("gpu.mem_efficiency").observe(timing.mem_efficiency);
  m.histogram("gpu.dram_throughput_bytes_per_sec").observe(timing.dram_throughput);
  const StallBreakdown stalls = stall_breakdown(timing);
  for (const auto& [reason, fraction] :
       {std::pair{"memory_dependency", stalls.memory_dependency},
        std::pair{"memory_throttle", stalls.memory_throttle},
        std::pair{"execution_dependency", stalls.execution_dependency},
        std::pair{"other", stalls.other}}) {
    m.histogram("gpu.stall_fraction", {{"reason", reason}}).observe(fraction);
    m.counter("gpu.stall_seconds", {{"reason", reason}}).add(placed_seconds * fraction);
  }
}

}  // namespace multihit
