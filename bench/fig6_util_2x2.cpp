// Fig. 6 — Compute utilization, DRAM read/write throughput, and warp-stall
// breakdown across the 600 GPUs of a 100-node run, 2x2 scheme, ACC (the
// smallest dataset) — the paper's diagnosis of why 2x2 scales poorly:
//  (a) utilization decreases with GPU index (later GPUs finish early and
//      idle while GPU 0, at 100%, still runs);
//  (b) DRAM throughput rises with GPU index until the processors transition
//      from memory-bound to compute-bound;
//  (c) stalls are dominated by memory dependency, memory throttle, and
//      execution dependency.
//
// Mechanism in the model: equi-area gives every GPU the same combination
// count, but early partitions hold few heavy threads (poor occupancy, so
// DRAM latency cannot be hidden -> slow, low achieved throughput), while
// late partitions hold millions of light threads (full occupancy, high
// throughput, fast finish -> idle).

#include <iostream>

#include "cluster/model.hpp"
#include "data/registry.hpp"
#include "obs/bench.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "util/table.hpp"

int main() {
  using namespace multihit;
  const auto acc = find_cancer_type("ACC");
  if (!acc) return 1;

  SummitConfig config;
  config.nodes = 100;

  ModelInputs inputs;
  inputs.genes = acc->paper_genes;
  inputs.tumor_samples = acc->paper_tumor_samples;
  inputs.normal_samples = acc->paper_normal_samples;
  inputs.inner = 2;
  inputs.first_iteration_only = true;
  obs::Recorder recorder;
  recorder.profile.enable();
  inputs.recorder = &recorder;

  std::cout << "Reproduces paper Fig. 6 (per-GPU utilization, 2x2 scheme, ACC, "
            << config.units() << " GPUs).\n";
  const ModeledRun run = model_cluster_run(config, inputs);
  const auto& gpus = run.iterations.front().gpus;

  double max_time = 0.0;
  for (const auto& g : gpus) max_time = std::max(max_time, g.time);

  print_section(std::cout, "Fig. 6(a)-(c) — sampled every 10th GPU");
  Table table({"gpu", "utilization %", "dram throughput %", "occupancy %", "bound",
               "stall mem-dep %", "stall mem-throttle %", "stall exec-dep %"});
  table.set_precision(1);
  for (std::size_t g = 0; g < gpus.size(); g += 10) {
    const auto& t = gpus[g];
    const auto stalls = stall_breakdown(t);
    table.add_row({static_cast<long long>(g), 100.0 * t.time / max_time,
                   100.0 * t.dram_throughput / config.device.dram_bandwidth,
                   100.0 * t.occupancy, std::string(t.memory_bound ? "memory" : "compute"),
                   100.0 * stalls.memory_dependency, 100.0 * stalls.memory_throttle,
                   100.0 * stalls.execution_dependency});
  }
  table.print(std::cout);

  // Shape summary.
  const auto& first = gpus.front();
  const auto& last = gpus.back();
  std::cout << "GPU 0 utilization = 100% (slowest, defines the iteration).\n"
            << "GPU " << gpus.size() - 1
            << " utilization = " << 100.0 * last.time / max_time << "%\n"
            << "throughput rises " << first.dram_throughput / 1e9 << " -> "
            << last.dram_throughput / 1e9 << " GB/s with GPU index\n"
            << "Shape check vs paper: utilization decreasing with GPU index, DRAM\n"
               "throughput increasing; the inverse utilization/throughput correlation\n"
               "holds up to the point where throughput saturates (the paper's ~GPU #500\n"
               "transition), after which utilization flattens instead of tracking it.\n";

  // BENCH record: the headline figure values plus the same quantities read
  // back from the run's multihit.profile.v1 rollups, so bench_compare.py can
  // catch drift in either the model or the profiler independently.
  {
    const auto first_stalls = stall_breakdown(first);
    obs::BenchReporter reporter("fig6_util_2x2");
    reporter.series("util_gpu0_pct", 100.0 * first.time / max_time, "%");
    reporter.series("util_last_pct", 100.0 * last.time / max_time, "%");
    reporter.series("occupancy_gpu0_pct", 100.0 * first.occupancy, "%");
    reporter.series("stall_mem_dep_gpu0_pct", 100.0 * first_stalls.memory_dependency, "%");
    reporter.series("throughput_rise_ratio", last.dram_throughput / first.dram_throughput,
                    "x");
    const obs::JsonValue profile = obs::profile_report(recorder.profile);
    const obs::JsonValue& roofline = *profile.find("roofline");
    reporter.series("profile_kernels", profile.find("totals")->find("kernels")->as_number(),
                    "kernels");
    reporter.series("profile_memory_bound_kernels",
                    roofline.find("memory_bound_kernels")->as_number(), "kernels");
    reporter.series("profile_mean_occupancy_pct",
                    100.0 * roofline.find("mean_occupancy")->as_number(), "%");
    reporter.series("profile_peak_dram_throughput_gbs",
                    roofline.find("peak_dram_throughput")->as_number() / 1e9, "GB/s");
    reporter.series("profile_stall_mem_dep_pct",
                    100.0 * roofline.find("stall_memory_dependency")->as_number(), "%");
    reporter.series("profile_stall_mem_throttle_pct",
                    100.0 * roofline.find("stall_memory_throttle")->as_number(), "%");
    reporter.write();
  }
  return 0;
}
