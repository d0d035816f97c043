// Fig. 2 — Thread workload distribution for the sequential mapping of the
// upper triangular (2x2 scheme, Algorithm 2) and upper tetrahedral (3x1
// scheme, Algorithm 3) matrices, at G = 10 exactly as in the paper.
//
// The figure's message: tetrahedral mapping spreads the same total work
// (C(10,4) = 210 combinations) over C(10,3) = 120 threads with a max
// workload of G-3 = 7, versus C(10,2) = 45 threads with a max workload of
// C(8,2) = 28 for the triangular mapping.

#include <iostream>

#include "sched/workload.hpp"
#include "util/table.hpp"

namespace {

using namespace multihit;

void print_scheme(Scheme scheme, std::uint32_t genes) {
  const auto model = WorkloadModel::for_scheme(scheme, genes);
  print_section(std::cout, std::string("Fig. 2 — per-thread workload, ") +
                               scheme_name(scheme) + " scheme, G = " +
                               std::to_string(genes));
  Table table({"thread (lambda)", "workload (combinations)"});
  for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
    table.add_row({static_cast<long long>(lambda),
                   static_cast<long long>(model.work_at(lambda))});
  }
  table.print(std::cout);
  std::cout << "threads = " << model.total_threads()
            << ", total work = " << static_cast<unsigned long long>(model.total_work())
            << ", max/min per-thread = " << model.work_at(0) << "/"
            << model.work_at(model.total_threads() - 1) << "\n";
}

}  // namespace

int main() {
  std::cout << "Reproduces paper Fig. 2 (workload per thread, G = 10).\n";
  print_scheme(Scheme{4, 2}, 10);
  print_scheme(Scheme{4, 3}, 10);
  std::cout << "\nShape check: 2x2 spread is C(G-2,2)-0 = 28 over 45 threads; "
               "3x1 spread is (G-3)-0 = 7 over 120 threads.\n";
  return 0;
}
