// Fig. 9 — Classification performance of the identified 4-hit combinations
// for the 11 cancer types estimated to require four or more hits. Protocol
// (paper §III-G / §IV-F): 75% of samples train the greedy WSC engine, the
// held-out 25% are classified (tumor iff all genes of any identified
// combination are mutated). The paper reports 83% average sensitivity
// (95% CI 72-90%) and 90% average specificity (95% CI 81-96%).
//
// Data here is the synthetic registry (planted combinations + background
// noise + imperfect detection) at functional scale, so the discovered
// combinations can additionally be checked against ground truth.

#include <algorithm>
#include <iostream>
#include <string>

#include "classify/classifier.hpp"
#include "core/engine.hpp"
#include "data/registry.hpp"
#include "util/table.hpp"

namespace {

// "[lo,hi]", each bound the first four characters of std::to_string: cut,
// not rounded. Appended in place; a chain of operator+ on substr temporaries
// draws a false -Wrestrict from g++ 12 at -O3.
std::string interval(double lo, double hi) {
  std::string out = "[";
  out.append(std::to_string(lo), 0, 4).append(",").append(std::to_string(hi), 0, 4);
  return out.append("]");
}

}  // namespace

int main() {
  using namespace multihit;
  std::cout << "Reproduces paper Fig. 9 (per-cancer-type sensitivity/specificity, 4-hit).\n";

  Table table({"cancer", "combos", "sensitivity", "sens 95% CI", "specificity",
               "spec 95% CI", "planted recovered"});
  table.set_precision(2);

  std::vector<double> sensitivities, specificities;
  std::size_t total_selected = 0;

  for (const CancerType& type : four_plus_hit_types()) {
    const Dataset data = generate_functional_dataset(type);
    const auto split = split_dataset(data, 0.75, type.functional.seed ^ 0xABCD);

    EngineConfig config;
    config.hits = type.hits;
    const Evaluator evaluator = make_kernel_evaluator(type.hits);
    const GreedyResult trained =
        run_greedy(split.train.tumor, split.train.normal, config, evaluator);
    total_selected += trained.iterations.size();

    const CombinationClassifier classifier(trained.combinations());
    const ClassificationReport report = evaluate_classifier(classifier, split.test);
    sensitivities.push_back(report.sensitivity());
    specificities.push_back(report.specificity());

    std::size_t recovered = 0;
    const auto selected = trained.combinations();
    for (const auto& truth : data.planted) {
      if (std::find(selected.begin(), selected.end(), truth) != selected.end()) ++recovered;
    }

    const auto sci = report.sensitivity_ci();
    const auto pci = report.specificity_ci();
    table.add_row({type.code, static_cast<long long>(trained.iterations.size()),
                   report.sensitivity(), interval(sci.lo, sci.hi), report.specificity(),
                   interval(pci.lo, pci.hi),
                   std::to_string(recovered) + "/" + std::to_string(data.planted.size())});
  }

  print_section(std::cout, "Fig. 9 — test-set classification per cancer type");
  table.print(std::cout);

  double mean_sens = 0.0, mean_spec = 0.0;
  for (double v : sensitivities) mean_sens += v;
  for (double v : specificities) mean_spec += v;
  mean_sens /= static_cast<double>(sensitivities.size());
  mean_spec /= static_cast<double>(specificities.size());
  std::cout << "combinations identified across 11 cancer types: " << total_selected
            << "   [paper: 151]\n"
            << "average sensitivity = " << mean_sens << "   [paper: 0.83]\n"
            << "average specificity = " << mean_spec << "   [paper: 0.90]\n";
  return 0;
}
