// §III-A / §IV-D ablation — the four parallelization schemes. The paper
// implements 2x2 and 3x1 and rejects 1x3 (too few threads) and 4x1
// (astronomically many trivial threads); §IV-D reports 2x2 dropping to 36%
// efficiency (ESCA, 500 vs 100 nodes) where 3x1 averages 91.14%.
//
// Three views: thread-space geometry at paper scale, modeled 100-node
// runtimes per scheme, and the ESCA 2x2-vs-3x1 strong-scaling collapse.

#include <iostream>

#include "cluster/model.hpp"
#include "cluster/scaling.hpp"
#include "sched/workload.hpp"
#include "util/table.hpp"

int main() {
  using namespace multihit;
  constexpr std::uint32_t kGenes = 19411;  // BRCA

  std::cout << "Reproduces the paper's parallelization-scheme ablation.\n";

  print_section(std::cout, "Thread-space geometry at G = 19411 (BRCA)");
  Table geometry({"scheme", "threads", "max per-thread work", "min per-thread work"});
  for (const Scheme scheme :
       {Scheme{4, 1}, Scheme{4, 2}, Scheme{4, 3}, Scheme{4, 4}}) {
    const auto model = WorkloadModel::for_scheme(scheme, kGenes);
    geometry.add_row({std::string(scheme_name(scheme)),
                      static_cast<long long>(model.total_threads()),
                      static_cast<long long>(model.work_at(0)),
                      static_cast<long long>(model.work_at(model.total_threads() - 1))});
  }
  geometry.print(std::cout);
  std::cout << "1x3: only G threads (cannot feed 6000 GPUs); 4x1: C(G,4) ~ 5.9e15 threads\n"
               "of unit work (launch overhead dominates); 2x2 spreads work O(G^2) wide;\n"
               "3x1 narrows the spread to O(G) — the paper's choice.\n";

  print_section(std::cout, "Modeled 100-node BRCA runtime per implementable scheme");
  Table runtimes({"scheme", "modeled time (s)"});
  runtimes.set_precision(0);
  for (const Scheme scheme : {Scheme{4, 2}, Scheme{4, 3}}) {
    ModelInputs inputs;
    inputs.inner = scheme.hits - scheme.flat;
    SummitConfig config;
    runtimes.add_row({std::string(scheme_name(scheme)),
                      model_cluster_run(config, inputs).total_time});
  }
  runtimes.print(std::cout);

  print_section(std::cout, "Strong scaling 100 -> 500 nodes, ESCA (paper §IV-D)");
  ModelInputs esca;
  esca.genes = 18364;
  esca.tumor_samples = 184;
  esca.normal_samples = 150;
  const std::vector<std::uint32_t> nodes{100, 200, 300, 400, 500};
  Table scaling({"nodes", "2x2 efficiency", "3x1 efficiency"});
  ModelInputs esca22 = esca;
  esca22.inner = 2;
  ModelInputs esca31 = esca;
  esca31.inner = 1;
  SummitConfig config;
  const auto eff22 = strong_scaling(config, esca22, nodes);
  const auto eff31 = strong_scaling(config, esca31, nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    scaling.add_row({static_cast<long long>(nodes[i]), eff22[i].efficiency,
                     eff31[i].efficiency});
  }
  scaling.print(std::cout);
  std::cout << "[paper: 2x2 fell to 36% at 500 nodes; 3x1 averaged 91.14%]\n";
  return 0;
}
