#include "core/session.hpp"

#include <cassert>
#include <stdexcept>

#include "combinat/unrank.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"

namespace multihit {

Engine::Engine(BitMatrix tumor, BitMatrix normal, EngineConfig config, Evaluator evaluator)
    : config_(std::move(config)),
      evaluator_(std::move(evaluator)),
      tumor_(std::move(tumor)),
      normal_(std::move(normal)),
      remaining_(tumor_.samples()) {
  validate();
  progress_.uncovered_tumor = remaining_;
  if (remaining_ == 0) done_ = true;
}

Engine::Engine(CheckpointState state, BitMatrix normal, EngineConfig config, Evaluator evaluator)
    : config_(std::move(config)),
      evaluator_(std::move(evaluator)),
      tumor_(std::move(state.tumor)),
      normal_(std::move(normal)),
      progress_(std::move(state.progress)) {
  config_.hits = state.hits;
  config_.bit_splicing = state.bit_splicing;
  validate();
  // With BitSplicing the matrix width IS the uncovered count; in the
  // zero-out ablation the width never shrinks, so the committed progress
  // carries the true count.
  remaining_ = progress_.iterations.empty() ? tumor_.samples() : progress_.uncovered_tumor;
  progress_.uncovered_tumor = remaining_;
  if (remaining_ == 0) done_ = true;
}

void Engine::validate() const {
  if (tumor_.genes() != normal_.genes()) {
    throw std::invalid_argument("tumor/normal gene counts differ");
  }
  if (config_.hits == 0 || config_.hits > tumor_.genes()) {
    throw std::invalid_argument("hits out of range");
  }
}

bool Engine::commit_one() {
  // Iteration spans read the simulated clock around the evaluator call;
  // without a wired clock the committed-iteration index keeps spans monotone.
  const auto now = [&](double fallback) {
    return config_.sim_clock ? config_.sim_clock() : fallback;
  };
  const double iter_begin = now(static_cast<double>(progress_.iterations.size()));
  FContext ctx{config_.f_params, remaining_, normal_.samples()};
  const EvalResult best = evaluator_(tumor_, normal_, ctx);
  if (!best.valid || best.tp == 0) {
    // No combination covers any remaining tumor sample; further iterations
    // would loop forever picking pure-TN combinations.
    MH_LOG_DEBUG << "greedy stop: best combination covers no remaining tumor sample ("
                 << remaining_ << " uncovered)";
    done_ = true;
    return false;
  }

  IterationRecord record;
  record.genes = unrank_combination(best.combo_rank, config_.hits);
  for (const std::uint32_t g : record.genes) {
    // An evaluator enumerating a different hit count than config.hits hands
    // back a rank from the wrong combination space; unranking it fabricates
    // gene indices past the matrix. Fail loudly instead of reading wild.
    if (g >= tumor_.genes()) {
      throw std::logic_error("engine: evaluator combo_rank unranks outside the gene range "
                             "(evaluator hit count != config.hits?)");
    }
  }
  record.f = best.f;
  record.tp = best.tp;
  record.tn = best.tn;
  record.tumor_remaining_before = remaining_;

  covered_.assign(tumor_.words_per_row(), 0);
  const std::uint64_t tp_check = tumor_.combine_rows(record.genes, covered_);
  assert(tp_check == best.tp);
  (void)tp_check;

  if (config_.bit_splicing) {
    remaining_ = tumor_.splice_covered(covered_);
    covered_.resize(tumor_.words_per_row());
  } else {
    // Zero out covered columns in place; width (and word work) unchanged.
    for (std::uint32_t g = 0; g < tumor_.genes(); ++g) {
      auto row = tumor_.row(g);
      for (std::uint32_t w = 0; w < tumor_.words_per_row(); ++w) row[w] &= ~covered_[w];
    }
    remaining_ -= static_cast<std::uint32_t>(best.tp);
  }

  record.tumor_remaining_after = remaining_;
  progress_.iterations.push_back(std::move(record));
  progress_.uncovered_tumor = remaining_;
  if (config_.recorder) {
    const IterationRecord& committed = progress_.iterations.back();
    const double iter_end = now(static_cast<double>(progress_.iterations.size()));
    config_.recorder->metrics.counter("engine.iterations").add(1.0);
    config_.recorder->metrics.counter("engine.covered_samples")
        .add(static_cast<double>(committed.tp));
    config_.recorder->metrics.histogram("engine.iteration_f").observe(committed.f);
    config_.recorder->trace.complete(
        obs::kEngineLane, "greedy_iteration", "engine", iter_begin, iter_end,
        {{"iteration", std::to_string(progress_.iterations.size() - 1)},
         {"f", std::to_string(committed.f)},
         {"tp", std::to_string(committed.tp)},
         {"remaining", std::to_string(remaining_)}});
  }
  if (config_.on_iteration) config_.on_iteration(progress_.iterations.back(), tumor_, remaining_);
  if (remaining_ == 0) done_ = true;
  return true;
}

std::uint32_t Engine::step(std::uint32_t limit) {
  std::uint32_t committed = 0;
  while (!done_ && (limit == 0 || committed < limit)) {
    if (config_.max_iterations != 0 && progress_.iterations.size() >= config_.max_iterations) {
      break;
    }
    if (!commit_one()) break;
    ++committed;
  }
  return committed;
}

const GreedyResult& Engine::run() {
  (void)step(0);
  return progress_;
}

CheckpointState Engine::checkpoint() const {
  return CheckpointState{config_.hits, config_.bit_splicing, progress_, tumor_};
}

// The legacy batch entry point: one-shot session, single implementation.
GreedyResult run_greedy(BitMatrix tumor, const BitMatrix& normal, const EngineConfig& config,
                        const Evaluator& evaluator) {
  Engine session(std::move(tumor), normal, config, evaluator);
  session.run();
  return std::move(session).take_result();
}

}  // namespace multihit
