// Cancer panel: the paper's end-to-end biological workflow on the full
// registry of 11 four-plus-hit cancer types — MAF-level data, 75/25
// train/test split, 4-hit discovery with the 3x1 GPU kernel, and per-type
// classification (the paper's Fig. 9 protocol), finishing with a
// driver-vs-passenger hotspot readout (the Fig. 10 analysis).
//
//   $ ./examples/cancer_panel [CODE]
//
// With a cancer-type CODE (e.g. ESCA) only that type runs, with full detail.

#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "classify/classifier.hpp"
#include "core/engine.hpp"
#include "data/maf.hpp"
#include "data/registry.hpp"
#include "util/table.hpp"

namespace {

using namespace multihit;

void run_type(const CancerType& type, bool verbose) {
  // Full pipeline: mutation-level records -> summarized matrices.
  SyntheticSpec spec = type.functional;
  const MafStudy study = generate_maf_study(spec);
  Dataset data = summarize_maf(study);
  data.name = type.code;

  const auto split = split_dataset(data, 0.75, spec.seed ^ 0xABCD);

  EngineConfig config;
  config.hits = type.hits;
  const GreedyResult trained =
      run_greedy(split.train.tumor, split.train.normal, config, make_kernel_evaluator(type.hits));
  const CombinationClassifier classifier(trained.combinations());
  const ClassificationReport report = evaluate_classifier(classifier, split.test);

  std::cout << type.code << " (" << type.description << "): "
            << trained.iterations.size() << " combinations, test sensitivity "
            << report.sensitivity() << ", specificity " << report.specificity() << "\n";

  if (!verbose) return;

  std::cout << "\nSelected combinations (gene symbols):\n";
  for (const auto& it : trained.iterations) {
    std::cout << "  {";
    for (std::size_t i = 0; i < it.genes.size(); ++i) {
      std::cout << (i ? ", " : "") << study.genes[it.genes[i]].symbol;
    }
    std::cout << "}  F=" << it.f << "  TP=" << it.tp << "\n";
  }

  // Fig. 10-style hotspot analysis on the top combination.
  if (!trained.iterations.empty()) {
    std::cout << "\nMutation-position analysis of the top combination:\n";
    for (const std::uint32_t gene : trained.iterations.front().genes) {
      const auto hist = position_histogram(study, gene, /*tumor=*/true);
      const auto total = std::accumulate(hist.begin(), hist.end(), 0u);
      const auto peak = std::max_element(hist.begin(), hist.end());
      const double frac = total ? static_cast<double>(*peak) / total : 0.0;
      std::cout << "  " << study.genes[gene].symbol << ": " << total
                << " tumor mutations, top position carries " << 100.0 * frac << "% -> "
                << (frac > 0.4 ? "driver-like hotspot (IDH1-like)"
                               : "spread out (passenger-like, MUC6-like)")
                << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace multihit;
  if (argc > 1) {
    const auto type = find_cancer_type(argv[1]);
    if (!type) {
      std::cerr << "unknown cancer type '" << argv[1] << "'; known:";
      for (const auto& t : cancer_registry()) std::cerr << ' ' << t.code;
      std::cerr << "\n";
      return 1;
    }
    run_type(*type, /*verbose=*/true);
    return 0;
  }
  std::cout << "4-hit discovery + classification across the 11 four-plus-hit cancer "
               "types (synthetic registry):\n\n";
  for (const CancerType& type : four_plus_hit_types()) {
    run_type(type, /*verbose=*/false);
  }
  std::cout << "\nRun with a type code (e.g. ./cancer_panel ESCA) for full detail.\n";
  return 0;
}
