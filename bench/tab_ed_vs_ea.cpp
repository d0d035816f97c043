// §IV-B table — Equi-distance vs equi-area scheduler runtimes for the 4-hit
// 2x2 scheme on 100 nodes. The paper reports ED = 13943 s vs EA = 4607 s
// (~3x) for BRCA.
//
// Two views: the paper-scale modeled runtimes, and a measured functional run
// at reduced G where both schedulers execute the real kernels and must pick
// identical combinations.

#include <iostream>

#include "cluster/distributed.hpp"
#include "cluster/model.hpp"
#include "data/generator.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace multihit;
  std::cout << "Reproduces the paper's §IV-B ED-vs-EA comparison (2x2 scheme, 100 nodes).\n";

  // Paper-scale model, BRCA.
  SummitConfig config;
  ModelInputs inputs;
  inputs.inner = 2;
  const double ea_time = model_cluster_run(config, inputs).total_time;
  ModelInputs ed_inputs = inputs;
  ed_inputs.scheduler = SchedulerKind::kEquiDistance;
  const double ed_time = model_cluster_run(config, ed_inputs).total_time;

  print_section(std::cout, "Modeled runtimes at paper scale (BRCA, G = 19411)");
  Table model_table({"scheduler", "modeled time (s)", "paper (s)"});
  model_table.set_precision(0);
  model_table.add_row({std::string("equi-distance"), ed_time, 13943.0});
  model_table.add_row({std::string("equi-area"), ea_time, 4607.0});
  model_table.print(std::cout);
  std::cout << "speedup EA over ED: modeled " << ed_time / ea_time << "x, paper "
            << 13943.0 / 4607.0 << "x\n";

  // Functional cross-check at reduced G: identical results, EA balances work.
  SyntheticSpec spec;
  spec.genes = 40;
  spec.tumor_samples = 80;
  spec.normal_samples = 60;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.seed = 99;
  const Dataset data = generate_dataset(spec);

  SummitConfig small;
  small.nodes = 5;
  const ClusterRunner runner(small);
  DistributedOptions ea_opts;
  ea_opts.inner = 2;
  DistributedOptions ed_opts = ea_opts;
  ed_opts.scheduler = SchedulerKind::kEquiDistance;

  const auto ea_run = runner.run(data, ea_opts);
  const auto ed_run = runner.run(data, ed_opts);

  print_section(std::cout, "Functional cross-check (G = 40, 5 nodes, real kernels)");
  Table func({"scheduler", "modeled time (s)", "combinations selected", "same results"});
  const bool same = ea_run.greedy.combinations() == ed_run.greedy.combinations();
  func.add_row({std::string("equi-distance"), ed_run.total_time,
                static_cast<long long>(ed_run.greedy.iterations.size()),
                std::string(same ? "yes" : "NO")});
  func.add_row({std::string("equi-area"), ea_run.total_time,
                static_cast<long long>(ea_run.greedy.iterations.size()),
                std::string(same ? "yes" : "NO")});
  func.print(std::cout);
  return 0;
}
