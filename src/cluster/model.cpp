#include "cluster/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gpusim/device.hpp"
#include "obs/recorder.hpp"
#include "sched/memaware.hpp"
#include "sched/workload.hpp"

namespace multihit {

namespace {

constexpr std::uint32_t words_for(std::uint32_t samples) noexcept {
  return (samples + 63) / 64;
}

Scheme scheme_for(const ModelInputs& inputs) noexcept {
  return Scheme{inputs.hits, inputs.hits - inputs.inner};
}

// One modeled distributed iteration at the given tumor width.
ModeledIteration model_iteration(const SummitConfig& config, const ModelInputs& inputs,
                                 const std::vector<Partition>& schedule,
                                 std::uint32_t tumor_samples, std::uint32_t iteration_index) {
  const std::uint32_t units = config.units();
  const std::uint32_t wt = words_for(tumor_samples);
  const std::uint32_t wn = words_for(inputs.normal_samples);

  ModeledIteration iteration;
  iteration.tumor_samples = tumor_samples;
  iteration.gpus.resize(units);
  iteration.rank_compute.assign(config.nodes, 0.0);
  iteration.rank_comm.assign(config.nodes, 0.0);

  SimComm comm(config.nodes, config.comm);
  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    double node_time = 0.0;
    for (std::uint32_t g = 0; g < config.gpus_per_node; ++g) {
      const std::uint32_t unit = node * config.gpus_per_node + g;
      const KernelStats stats = scheme_stats(scheme_for(inputs), inputs.genes,
                                             schedule[unit].begin, schedule[unit].end,
                                             inputs.mem_opts, wt, wn);
      GpuTiming timing = model_gpu_time(config.device, stats, schedule[unit].size());
      // The profile keeps the device-model view (un-jittered) in the modeled
      // fields and the jittered placement in sim_seconds — the same split the
      // functional cluster path records.
      if (inputs.recorder && inputs.recorder->profile.enabled() &&
          schedule[unit].size() > 0) {
        inputs.recorder->profile.set_context({node, unit, iteration_index, false});
        inputs.recorder->profile.record(
            kernel_profile_from(config.device, stats, timing, schedule[unit]));
      }
      timing.time *= config.jitter_factor(unit) * config.noise_factor();
      if (inputs.recorder && inputs.recorder->profile.enabled() &&
          schedule[unit].size() > 0) {
        inputs.recorder->profile.annotate_last(0.0, timing.time);
      }
      iteration.gpus[unit] = timing;
      const std::uint64_t blocks =
          (schedule[unit].size() + config.device.block_size - 1) / config.device.block_size;
      iteration.candidate_bytes_total += blocks * kCandidateBytes;
      node_time = std::max(node_time, timing.time);
    }
    comm.compute(node, node_time);
  }

  // The reduction carries one 20-byte candidate per rank; values are
  // irrelevant for the model, only clocks matter — the timing-only walk.
  comm.reduce_clocks(0, kCandidateBytes);
  comm.broadcast(0, kCandidateBytes);

  iteration.time = comm.finish_time() +
                   static_cast<double>(inputs.genes) * wt / config.host_word_rate;
  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    iteration.rank_compute[node] = comm.compute_time(node);
    iteration.rank_comm[node] = comm.comm_time(node);
  }
  return iteration;
}

}  // namespace

ModeledRun model_cluster_run(const SummitConfig& config, const ModelInputs& inputs) {
  if (inputs.coverage_per_iteration <= 0.0 || inputs.coverage_per_iteration > 1.0) {
    throw std::invalid_argument("coverage_per_iteration must be in (0, 1]");
  }

  const WorkloadModel model = WorkloadModel::for_scheme(scheme_for(inputs), inputs.genes);
  std::vector<Partition> schedule;
  switch (inputs.scheduler) {
    case SchedulerKind::kEquiDistance:
      schedule = equidistance_schedule(model, config.units());
      break;
    case SchedulerKind::kEquiArea:
      schedule = equiarea_schedule(model, config.units());
      break;
    case SchedulerKind::kMemoryAware:
      schedule = memaware_schedule(model, config.units(),
                                   memory_cost_weights(inputs.hits, inputs.mem_opts));
      break;
  }

  ModeledRun run;
  run.schedule_time =
      static_cast<double>(model.levels().size()) * config.schedule_seconds_per_level;

  if (inputs.recorder && inputs.recorder->profile.enabled()) {
    inputs.recorder->profile.set_device(profile_device_info(config.device));
  }
  double remaining = inputs.tumor_samples;
  std::uint32_t iterations = 0;
  while (remaining >= 1.0) {
    const auto width = static_cast<std::uint32_t>(std::ceil(remaining));
    run.iterations.push_back(model_iteration(config, inputs, schedule,
                                             inputs.bit_splicing ? width
                                                                 : inputs.tumor_samples,
                                             iterations));
    ++iterations;
    if (inputs.first_iteration_only) break;
    if (inputs.max_iterations != 0 && iterations >= inputs.max_iterations) break;
    remaining *= 1.0 - inputs.coverage_per_iteration;
  }

  run.total_time = config.job_overhead() + run.schedule_time;
  for (const auto& it : run.iterations) run.total_time += it.time;

  // Fault/checkpoint overheads (§IV-A operational reality, zero by default):
  // expected failures scale with fault-free wall-clock x fleet size, each
  // costing the failure-detector window, a schedule rebuild, and the dead
  // rank's share of one iteration re-run across the survivors.
  const double fault_free_time = run.total_time;
  if (inputs.checkpoint_every_seconds > 0.0) {
    const double snapshots = std::floor(fault_free_time / inputs.checkpoint_every_seconds);
    const double matrix_bytes =
        static_cast<double>(inputs.genes) * words_for(inputs.tumor_samples) * 8.0;
    run.checkpoint_overhead = snapshots * matrix_bytes / config.checkpoint_bytes_per_sec;
  }
  if (inputs.rank_mtbf_hours > 0.0 && !run.iterations.empty()) {
    run.expected_failures =
        fault_free_time * static_cast<double>(config.nodes) / (inputs.rank_mtbf_hours * 3600.0);
    double mean_iteration = 0.0;
    for (const auto& it : run.iterations) mean_iteration += it.time;
    mean_iteration /= static_cast<double>(run.iterations.size());
    const double per_failure = config.comm.detection_window +
                               mean_iteration / static_cast<double>(config.nodes) +
                               run.schedule_time;
    run.fault_overhead = run.expected_failures * per_failure;
  }
  run.total_time += run.fault_overhead + run.checkpoint_overhead;
  return run;
}

double model_single_gpu_time(const DeviceSpec& device, const ModelInputs& inputs) {
  SummitConfig single;
  single.nodes = 1;
  single.gpus_per_node = 1;
  single.device = device;
  single.job_fixed_overhead = 0.0;
  single.job_log_overhead = 0.0;
  single.gpu_jitter = 0.0;
  const ModeledRun run = model_cluster_run(single, inputs);
  return run.total_time;
}

double model_single_cpu_time(const ModelInputs& inputs, double cpu_word_rate) {
  // A sequential scan performs the fully-prefetched op count (the CPU keeps
  // the fixed rows in cache): use the analytic word-op total over the whole
  // space with both prefetch optimizations on.
  constexpr MemOpts kPrefetch{.prefetch_i = true, .prefetch_j = true};
  const Scheme scheme = scheme_for(inputs);
  const std::uint32_t wt = (inputs.tumor_samples + 63) / 64;
  const std::uint32_t wn = (inputs.normal_samples + 63) / 64;
  const u64 threads = scheme_threads(scheme, inputs.genes);

  double total_ops = 0.0;
  double remaining = inputs.tumor_samples;
  while (remaining >= 1.0) {
    const auto width = static_cast<std::uint32_t>(std::ceil(remaining));
    const std::uint32_t wti = inputs.bit_splicing ? (width + 63) / 64 : wt;
    const KernelStats stats =
        scheme_stats(scheme, inputs.genes, 0, threads, kPrefetch, wti, wn);
    total_ops += static_cast<double>(stats.word_ops);
    if (inputs.first_iteration_only) break;
    remaining *= 1.0 - inputs.coverage_per_iteration;
  }
  return total_ops / cpu_word_rate;
}

double calibrate_coverage(const GreedyResult& result) {
  if (result.iterations.empty()) return 0.45;
  double sum = 0.0;
  for (const IterationRecord& it : result.iterations) {
    sum += static_cast<double>(it.tp) / static_cast<double>(it.tumor_remaining_before);
  }
  return sum / static_cast<double>(result.iterations.size());
}

}  // namespace multihit
