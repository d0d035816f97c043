// Fig. 7 — Compute utilization across MPI processes for the 3x1 scheme on
// the BRCA dataset, 100-node run. The paper's point (§IV-D): after switching
// from 2x2 to 3x1, utilization is balanced across all 600 GPUs — every
// equi-area partition holds millions of light threads, so every device runs
// at full occupancy and finishes together.

#include <iostream>

#include "cluster/model.hpp"
#include "obs/bench.hpp"
#include "obs/recorder.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace multihit;
  SummitConfig config;
  config.nodes = 100;

  ModelInputs inputs;  // BRCA defaults
  inputs.first_iteration_only = true;
  obs::Recorder recorder;
  inputs.recorder = &recorder;

  std::cout << "Reproduces paper Fig. 7 (per-GPU utilization, 3x1 scheme, BRCA, "
            << config.units() << " GPUs).\n";
  const ModeledRun run = model_cluster_run(config, inputs);
  const auto& gpus = run.iterations.front().gpus;

  double max_time = 0.0;
  std::vector<double> utilization;
  utilization.reserve(gpus.size());
  for (const auto& g : gpus) max_time = std::max(max_time, g.time);
  for (const auto& g : gpus) utilization.push_back(100.0 * g.time / max_time);

  print_section(std::cout, "Fig. 7 — utilization sampled every 10th GPU");
  Table table({"gpu", "utilization %", "occupancy %", "bound"});
  table.set_precision(1);
  for (std::size_t g = 0; g < gpus.size(); g += 10) {
    table.add_row({static_cast<long long>(g), utilization[g], 100.0 * gpus[g].occupancy,
                   std::string(gpus[g].memory_bound ? "memory" : "compute")});
  }
  table.print(std::cout);

  std::cout << "utilization: mean = " << stats::mean(utilization)
            << "%, min = " << stats::min(utilization) << "%, stddev = "
            << stats::stddev(utilization) << "%\n"
            << "Shape check vs paper: near-uniform utilization across all GPUs "
               "(contrast with Fig. 6's 2x2 decay).\n";

  // BENCH record: figure statistics plus the launch metrics' view of the
  // same run (tests/test_obs.cpp pins both against the model).
  {
    obs::BenchReporter reporter("fig7_util_3x1");
    reporter.series("util_mean_pct", stats::mean(utilization), "%");
    reporter.series("util_min_pct", stats::min(utilization), "%");
    reporter.series("util_stddev_pct", stats::stddev(utilization), "%");
    obs::MetricsRegistry& m = recorder.metrics;
    const obs::Histogram& occupancy = m.histogram("gpu.occupancy");
    const double kernels = static_cast<double>(occupancy.count());
    reporter.series("profile_kernels", kernels, "kernels");
    reporter.series("profile_mean_occupancy_pct", 100.0 * (occupancy.sum() / kernels), "%");
    reporter.series("profile_memory_bound_kernels",
                    m.counter("gpu.launches_memory_bound").value(), "kernels");
    reporter.series("profile_gpu_seconds", m.counter("gpu.placed_seconds").value(), "s");
    reporter.write();
  }
  return 0;
}
