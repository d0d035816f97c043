#pragma once
// The run pipeline behind one analysis, library-ified as a session.
//
// run_greedy() is a batch call: matrices in, selections out, all iterations
// in one blocking loop. A serving layer needs the same pipeline as a
// *resumable object*: admit a job, advance it one greedy iteration at a
// time on whatever slice of the fleet the scheduler grants this round,
// preempt it at an iteration boundary, snapshot it, resume it in a later
// allocation. Engine is that object — it owns the spliced tumor matrix, the
// committed selections, and the uncovered count, and exposes the greedy loop
// as step()/run() increments.
//
// Equivalence contract (pinned by tests/test_engine_session.cpp): any
// interleaving of step() calls — including checkpoint()/resume round trips
// between them — commits exactly the same iteration sequence as one
// run_greedy() call with the same inputs. run_greedy() itself is now a thin
// wrapper over a one-shot session, so there is a single greedy
// implementation for the serial, kernel, host-sweep, and simulated-cluster
// evaluators alike.

#include <cstdint>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/schemes.hpp"

namespace multihit {

class Engine {
 public:
  /// Opens a session on a private tumor copy. Validates like run_greedy:
  /// throws std::invalid_argument on mismatched gene counts or a hit count
  /// outside [1, genes].
  Engine(BitMatrix tumor, BitMatrix normal, EngineConfig config, Evaluator evaluator);

  /// Reopens a session from a checkpoint snapshot (the session-level resume:
  /// selections so far, the spliced tumor state, and the uncovered count are
  /// all restored; hits/bit_splicing come from the snapshot). `config`
  /// supplies everything the snapshot does not carry (f_params,
  /// max_iterations, recorder, sim_clock). Also throws std::invalid_argument
  /// when the snapshot's uncovered count disagrees with its tumor matrix or
  /// its last iteration.
  Engine(CheckpointState state, BitMatrix normal, EngineConfig config, Evaluator evaluator);

  /// Advances up to `limit` greedy iterations (0 = no per-call cap) and
  /// returns how many were committed. Stops early when the cover completes,
  /// when the best remaining combination covers no tumor sample, or at
  /// config.max_iterations total committed iterations.
  std::uint32_t step(std::uint32_t limit = 1);

  /// Runs to the session's stop condition (step(0)) and returns the result.
  const GreedyResult& run();

  /// True once the session can make no further progress: full coverage or a
  /// best combination covering nothing. Reaching config.max_iterations does
  /// NOT mark the session done — a later caller may still step it.
  bool done() const noexcept { return done_; }

  /// Tumor samples still uncovered.
  std::uint32_t uncovered() const noexcept { return remaining_; }

  std::uint32_t iterations_committed() const noexcept {
    return static_cast<std::uint32_t>(progress_.iterations.size());
  }

  const GreedyResult& result() const noexcept { return progress_; }
  const BitMatrix& tumor() const noexcept { return tumor_; }
  const BitMatrix& normal() const noexcept { return normal_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// Resumable snapshot of the session as it stands right now.
  CheckpointState checkpoint() const;

  /// Destructive accessor for one-shot drivers (run_greedy, the cluster).
  GreedyResult take_result() && { return std::move(progress_); }

 private:
  void validate() const;
  /// Commits one greedy iteration; returns false (and marks done) when the
  /// best remaining combination covers no tumor sample.
  bool commit_one();

  EngineConfig config_;
  Evaluator evaluator_;
  BitMatrix tumor_;
  BitMatrix normal_;
  GreedyResult progress_;
  std::vector<std::uint64_t> covered_;
  /// Lazy-greedy state handed to the evaluator each iteration
  /// (FContext::carried). Both constructors start it cold and checkpoints
  /// do not carry it, so a resumed session stays exact.
  CarriedBounds carried_;
  std::uint32_t remaining_ = 0;
  bool done_ = false;
};

}  // namespace multihit
