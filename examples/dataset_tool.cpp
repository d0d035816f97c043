// Dataset tool: generate, inspect, split, and solve datasets from the
// command line using the library's text format (data/io.hpp).
//
//   $ dataset_tool generate <path> [--genes N] [--tumor N] [--normal N]
//                                  [--hits N] [--combos N] [--seed N]
//   $ dataset_tool info <path>
//   $ dataset_tool split <path> <train-out> <test-out> [--seed N]
//   $ dataset_tool solve <path> [--hits N] [--checkpoint out.chk --iters K]
//   $ dataset_tool resume <path> <checkpoint> [--iters K]
//
// `solve` runs the greedy WSC engine with the deployed kernel for the hit
// count (1x1/2x1/3x1/4x1 for h = 2/3/4/5, serial otherwise). With
// --checkpoint it stops after --iters iterations and persists resumable
// state — the workflow Summit's allocation time limit forces; `resume`
// continues from such a file.

#include <cstring>
#include <iostream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "data/generator.hpp"
#include "data/io.hpp"
#include "util/log.hpp"

namespace {

using namespace multihit;

std::uint64_t flag_value(int argc, char** argv, const char* flag, std::uint64_t fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::stoull(argv[i + 1]);
  }
  return fallback;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) return 1;
  SyntheticSpec spec;
  spec.genes = static_cast<std::uint32_t>(flag_value(argc, argv, "--genes", 60));
  spec.tumor_samples = static_cast<std::uint32_t>(flag_value(argc, argv, "--tumor", 100));
  spec.normal_samples = static_cast<std::uint32_t>(flag_value(argc, argv, "--normal", 80));
  spec.hits = static_cast<std::uint32_t>(flag_value(argc, argv, "--hits", 3));
  spec.num_combinations = static_cast<std::uint32_t>(flag_value(argc, argv, "--combos", 3));
  spec.seed = flag_value(argc, argv, "--seed", 42);
  Dataset data = generate_dataset(spec);
  data.name = argv[2];
  save_dataset(argv[2], data);
  std::cout << "wrote " << argv[2] << " (" << data.genes() << " genes, "
            << data.tumor_samples() << "+" << data.normal_samples() << " samples, "
            << data.planted.size() << " planted combinations)\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return 1;
  const Dataset data = load_dataset(argv[2]);
  const double tumor_density =
      data.tumor_samples()
          ? static_cast<double>(data.tumor.total_set_bits()) /
                (static_cast<double>(data.genes()) * data.tumor_samples())
          : 0.0;
  std::cout << "name:            " << data.name << "\n"
            << "genes:           " << data.genes() << "\n"
            << "tumor samples:   " << data.tumor_samples() << "\n"
            << "normal samples:  " << data.normal_samples() << "\n"
            << "tumor density:   " << tumor_density << "\n"
            << "planted combos:  " << data.planted.size() << "\n";
  return 0;
}

int cmd_split(int argc, char** argv) {
  if (argc < 5) return 1;
  const Dataset data = load_dataset(argv[2]);
  const auto split = split_dataset(data, 0.75, flag_value(argc, argv, "--seed", 7));
  save_dataset(argv[3], split.train);
  save_dataset(argv[4], split.test);
  std::cout << "train: " << split.train.tumor_samples() << "+"
            << split.train.normal_samples() << " samples -> " << argv[3] << "\n"
            << "test:  " << split.test.tumor_samples() << "+" << split.test.normal_samples()
            << " samples -> " << argv[4] << "\n";
  return 0;
}

const char* flag_string(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

void print_progress(const GreedyResult& result) {
  std::cout << result.iterations.size() << " combinations (" << result.uncovered_tumor
            << " tumor samples uncovered):\n";
  for (const auto& it : result.iterations) {
    std::cout << "  {";
    for (std::size_t i = 0; i < it.genes.size(); ++i) {
      std::cout << (i ? ", " : "") << "g" << it.genes[i];
    }
    std::cout << "}  F=" << it.f << "  TP=" << it.tp << "  TN=" << it.tn << "\n";
  }
}

int cmd_solve(int argc, char** argv) {
  if (argc < 3) return 1;
  const Dataset data = load_dataset(argv[2]);
  const auto hits = static_cast<std::uint32_t>(flag_value(argc, argv, "--hits", 3));
  const Evaluator evaluator = make_kernel_evaluator(hits);

  EngineConfig config;
  config.hits = hits;

  if (const char* checkpoint_path = flag_string(argc, argv, "--checkpoint")) {
    const auto iters = static_cast<std::uint32_t>(flag_value(argc, argv, "--iters", 1));
    Engine session(data.tumor, data.normal, config, evaluator);
    session.step(iters);
    const CheckpointState state = session.checkpoint();
    save_checkpoint(checkpoint_path, state);
    print_progress(state.progress);
    std::cout << "checkpoint written to " << checkpoint_path << " ("
              << (state.progress.uncovered_tumor > 0 ? "resumable" : "complete") << ")\n";
    return 0;
  }

  print_progress(run_greedy(data.tumor, data.normal, config, evaluator));
  return 0;
}

int cmd_resume(int argc, char** argv) {
  if (argc < 4) return 1;
  const Dataset data = load_dataset(argv[2]);
  CheckpointState snapshot = load_checkpoint(argv[3]);
  const auto iters = static_cast<std::uint32_t>(flag_value(argc, argv, "--iters", 0));
  const Evaluator evaluator = make_kernel_evaluator(snapshot.hits);
  Engine session(std::move(snapshot), data.normal, EngineConfig{}, evaluator);
  session.step(iters);
  const CheckpointState state = session.checkpoint();
  save_checkpoint(argv[3], state);
  print_progress(state.progress);
  std::cout << "checkpoint updated ("
            << (state.progress.uncovered_tumor > 0 ? "resumable" : "complete") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: dataset_tool <generate|info|split|solve|resume> <path> [args]\n"
      "  generate <path> [--genes N] [--tumor N] [--normal N] [--hits N] "
      "[--combos N] [--seed N]\n"
      "  info <path>\n"
      "  split <path> <train-out> <test-out> [--seed N]\n"
      "  solve <path> [--hits N] [--checkpoint out.chk --iters K]\n"
      "  resume <path> <checkpoint> [--iters K]\n"
      "  (any command also accepts --log-level <" +
      std::string(multihit::log::level_names()) + ">)\n";
  if (argc < 2) {
    std::cerr << usage;
    return 1;
  }
  if (const char* name = flag_string(argc, argv, "--log-level")) {
    const auto level = multihit::log::parse_level(name);
    if (!level) {
      std::cerr << "unknown --log-level '" << name << "' (expected one of: "
                << multihit::log::level_names() << ")\n";
      return 1;
    }
    multihit::log::set_level(*level);
  }
  try {
    const std::string cmd = argv[1];
    int rc = 1;
    if (cmd == "generate") rc = cmd_generate(argc, argv);
    else if (cmd == "info") rc = cmd_info(argc, argv);
    else if (cmd == "split") rc = cmd_split(argc, argv);
    else if (cmd == "solve") rc = cmd_solve(argc, argv);
    else if (cmd == "resume") rc = cmd_resume(argc, argv);
    if (rc != 0) std::cerr << usage;
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
