#pragma once
// The greedy weighted-set-cover driver (paper §II-B):
//
//   repeat until every tumor sample is covered:
//     1. enumerate all h-hit combinations and compute F
//     2. take the combination with maximum F
//     3. exclude the tumor samples it covers
//
// Step 1-2 is delegated to an Evaluator so the same engine drives the serial
// reference, a single simulated GPU, or a full simulated cluster. Step 3 is
// BitSplicing (§III-D) by default: covered sample columns are physically
// compacted out of the tumor matrix so later iterations do linearly less
// word work. The ablation mode instead zeroes covered columns in place,
// which is result-identical but keeps the matrix width — exactly the cost
// the paper's optimization removes.

#include <cstdint>
#include <functional>
#include <vector>

#include "bitmat/bitmatrix.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"

namespace multihit::obs {
struct Recorder;
}  // namespace multihit::obs

namespace multihit {

/// Finds the best combination in the *current* tumor matrix (samples shrink
/// or zero out as the greedy progresses; the normal matrix is fixed).
using Evaluator =
    std::function<EvalResult(const BitMatrix& tumor, const BitMatrix& normal, const FContext&)>;

struct IterationRecord;

/// Observes each committed greedy iteration: the chosen record, the tumor
/// matrix *after* the exclusion step, and the uncovered sample count. This
/// is the hook periodic checkpointing and the cluster's fault-recovery
/// accounting attach to.
using IterationObserver =
    std::function<void(const IterationRecord&, const BitMatrix& tumor, std::uint32_t remaining)>;

struct EngineConfig {
  std::uint32_t hits = 4;
  FParams f_params;
  /// true: compact covered columns (the paper's BitSplicing);
  /// false: zero covered columns in place (ablation baseline).
  bool bit_splicing = true;
  /// 0 = run until all tumor samples are covered (or no combination covers
  /// any remaining sample); otherwise stop after this many combinations.
  std::uint32_t max_iterations = 0;
  /// Optional per-iteration observer (see IterationObserver). Called after
  /// the iteration is committed; must not mutate engine state.
  IterationObserver on_iteration;
  /// Optional observability recorder: each committed iteration lands a span
  /// on the engine lane plus engine.* counters. Null keeps the run untouched.
  obs::Recorder* recorder = nullptr;
  /// Simulated-clock source for iteration span timestamps. The cluster driver
  /// wires this to the communicator's finish_time(); when unset with a
  /// recorder attached, the iteration index serves as a pseudo-clock so spans
  /// stay monotone in serial runs.
  std::function<double()> sim_clock;
};

struct IterationRecord {
  std::vector<std::uint32_t> genes;  ///< the chosen combination, sorted
  double f = 0.0;
  std::uint64_t tp = 0;  ///< tumor samples newly covered
  std::uint64_t tn = 0;
  std::uint32_t tumor_remaining_before = 0;
  std::uint32_t tumor_remaining_after = 0;
};

struct GreedyResult {
  std::vector<IterationRecord> iterations;
  std::uint32_t uncovered_tumor = 0;  ///< samples still uncovered at stop

  /// Just the gene sets, in selection order.
  std::vector<std::vector<std::uint32_t>> combinations() const;
};

/// Runs the greedy cover. Matrices are taken by value: the engine consumes a
/// private tumor copy it can splice. Stops when coverage is complete, when
/// the best remaining combination covers zero tumor samples, or at the
/// iteration cap. A one-shot Engine session (core/session.hpp); use Engine
/// directly to step, checkpoint or resume.
GreedyResult run_greedy(BitMatrix tumor, const BitMatrix& normal, const EngineConfig& config,
                        const Evaluator& evaluator);

/// Evaluator backed by the serial reference scan (any h >= 1).
Evaluator make_serial_evaluator(std::uint32_t hits);

/// Evaluator backed by the full-range enumeration kernel with every loop
/// but the innermost flattened (Scheme{hits, hits-1}: 2 -> 1x1, 3 -> 2x1,
/// 4 -> 3x1 — the paper's winners), pruning against a greedy_floor computed
/// per evaluation. Falls back to the serial scan for hits < 2. When
/// `stats_sink` is non-null, every kernel evaluation accumulates its
/// KernelStats (combinations and pruned among them) into it; the sink must
/// outlive the evaluator.
Evaluator make_kernel_evaluator(std::uint32_t hits, KernelStats* stats_sink = nullptr);

}  // namespace multihit
