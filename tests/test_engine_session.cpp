// Engine session API equivalence suite (src/core/session.hpp).
//
// The contract: run_greedy() is now a thin wrapper over a one-shot Engine
// session, and ANY interleaving of step() calls — including checkpoint/resume
// round trips between them — commits exactly the same iteration sequence as
// the batch call. Pinned here for the serial, kernel, and host-sweep
// evaluators, against the simulated-cluster pipeline, and across both
// exclusion modes (BitSplicing and the zero-out ablation, whose resume paths
// reconstruct the uncovered count differently).

#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/distributed.hpp"
#include "core/checkpoint.hpp"
#include "core/hostsweep.hpp"
#include "data/generator.hpp"

namespace multihit {
namespace {

Dataset make_data(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 32;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.04;
  spec.seed = seed;
  return generate_dataset(spec);
}

void expect_same_result(const GreedyResult& a, const GreedyResult& b, const char* what) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << what;
  EXPECT_EQ(a.uncovered_tumor, b.uncovered_tumor) << what;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].genes, b.iterations[i].genes) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].f, b.iterations[i].f) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].tp, b.iterations[i].tp) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].tn, b.iterations[i].tn) << what << " iteration " << i;
    EXPECT_EQ(a.iterations[i].tumor_remaining_after, b.iterations[i].tumor_remaining_after)
        << what << " iteration " << i;
  }
}

TEST(EngineSession, RunMatchesBatchForEveryEvaluator) {
  const Dataset data = make_data(901);
  EngineConfig config;
  config.hits = 4;

  // One host-sweep worker takes the space as one chunk; three and eight
  // split it into block-aligned chunks.
  HostSweepOptions one, three, eight;
  one.hits = three.hits = eight.hits = 4;
  one.threads = 1;
  three.threads = 3;
  eight.threads = 8;
  const std::vector<std::pair<const char*, Evaluator>> evaluators = {
      {"serial", make_serial_evaluator(4)},
      {"kernel", make_kernel_evaluator(4)},
      {"host-sweep x1", make_host_sweep_evaluator(one)},
      {"host-sweep x3", make_host_sweep_evaluator(three)},
      {"host-sweep x8", make_host_sweep_evaluator(eight)},
  };
  for (const auto& [name, evaluator] : evaluators) {
    const GreedyResult batch = run_greedy(data.tumor, data.normal, config, evaluator);
    ASSERT_FALSE(batch.iterations.empty()) << name;

    Engine session(data.tumor, data.normal, config, evaluator);
    expect_same_result(session.run(), batch, name);
    EXPECT_TRUE(session.done()) << name;
    EXPECT_EQ(session.uncovered(), batch.uncovered_tumor) << name;
  }

  // The simulated-cluster pipeline is a separate execution substrate, not an
  // Evaluator — but its selections must still match the session's.
  const GreedyResult serial = run_greedy(data.tumor, data.normal, config,
                                         make_serial_evaluator(4));
  SummitConfig summit;
  summit.nodes = 2;
  const ClusterRunResult cluster = ClusterRunner(summit).run(data, DistributedOptions{});
  EXPECT_EQ(cluster.greedy.combinations(), serial.combinations());
}

TEST(EngineSession, StepInterleavingsCommitTheSameIterations) {
  const Dataset data = make_data(902);
  EngineConfig config;
  config.hits = 4;
  const Evaluator evaluator = make_kernel_evaluator(4);
  const GreedyResult batch = run_greedy(data.tumor, data.normal, config, evaluator);
  ASSERT_GE(batch.iterations.size(), 2u);

  // One iteration at a time.
  {
    Engine session(data.tumor, data.normal, config, evaluator);
    std::uint32_t total = 0;
    while (!session.done()) {
      const std::uint32_t committed = session.step(1);
      EXPECT_LE(committed, 1u);
      total += committed;
    }
    EXPECT_EQ(total, batch.iterations.size());
    expect_same_result(session.result(), batch, "step(1) loop");
    // A done session refuses further work without changing state.
    EXPECT_EQ(session.step(5), 0u);
    expect_same_result(session.result(), batch, "step after done");
  }

  // Mixed batch sizes, including the uncapped tail.
  {
    Engine session(data.tumor, data.normal, config, evaluator);
    (void)session.step(2);
    (void)session.step(1);
    (void)session.step(0);  // 0 = no per-call cap: run to the stop condition
    EXPECT_TRUE(session.done());
    expect_same_result(session.result(), batch, "mixed step sizes");
  }
}

TEST(EngineSession, CheckpointResumeRoundTripIsExact) {
  const Dataset data = make_data(903);
  for (const bool splicing : {true, false}) {
    EngineConfig config;
    config.hits = 4;
    config.bit_splicing = splicing;
    const Evaluator evaluator = make_kernel_evaluator(4);
    const GreedyResult batch = run_greedy(data.tumor, data.normal, config, evaluator);
    ASSERT_GE(batch.iterations.size(), 2u) << "splicing=" << splicing;

    Engine first(data.tumor, data.normal, config, evaluator);
    ASSERT_EQ(first.step(1), 1u);
    const CheckpointState snapshot = first.checkpoint();
    EXPECT_EQ(snapshot.progress.iterations.size(), 1u);
    EXPECT_EQ(snapshot.bit_splicing, splicing);

    // Resume in a brand-new session (the snapshot carries hits/splicing and
    // the tumor state; config supplies the rest) and run both to completion.
    Engine resumed(snapshot, data.normal, config, evaluator);
    EXPECT_EQ(resumed.iterations_committed(), 1u);
    EXPECT_EQ(resumed.uncovered(), batch.iterations[0].tumor_remaining_after)
        << "splicing=" << splicing;
    resumed.run();
    first.run();
    expect_same_result(resumed.result(), batch,
                       splicing ? "resumed (splicing)" : "resumed (zero-out)");
    expect_same_result(first.result(), batch, "interrupted original");
  }
}

TEST(EngineSession, ResumeRejectsAnUncoveredCountTheSnapshotDoesNotVouchFor) {
  // Regression: a zero-out snapshot whose count was edited down resumed, and
  // `remaining -= tp` wrapped to ~4.29e9 uncovered samples.
  const Dataset data = make_data(904);
  for (const bool splicing : {true, false}) {
    EngineConfig config;
    config.hits = 4;
    config.bit_splicing = splicing;
    const Evaluator evaluator = make_kernel_evaluator(4);
    Engine first(data.tumor, data.normal, config, evaluator);
    ASSERT_EQ(first.step(1), 1u);
    const CheckpointState good = first.checkpoint();
    ASSERT_NO_THROW(Engine(good, data.normal, config, evaluator)) << "splicing=" << splicing;
    const std::uint32_t count = good.progress.uncovered_tumor;
    ASSERT_GT(count, 3u);

    const auto with_count = [&](std::uint32_t edited, bool edit_last_iteration) {
      CheckpointState state = good;
      state.progress.uncovered_tumor = edited;
      if (edit_last_iteration) state.progress.iterations.back().tumor_remaining_after = edited;
      return state;
    };
    // Disagrees with the last iteration's remaining count.
    EXPECT_THROW(Engine(with_count(3, false), data.normal, config, evaluator),
                 std::invalid_argument) << "splicing=" << splicing;
    // More uncovered samples than the matrix has columns.
    EXPECT_THROW(Engine(with_count(good.tumor.samples() + 1, true), data.normal, config,
                        evaluator),
                 std::invalid_argument) << "splicing=" << splicing;
    // Under BitSplicing the matrix width is the count; under zero-out every
    // column with a mutation left is uncovered, so 3 is too few.
    EXPECT_THROW(Engine(with_count(splicing ? count - 1 : 3, true), data.normal, config,
                        evaluator),
                 std::invalid_argument) << "splicing=" << splicing;
  }
}

TEST(EngineSession, MaxIterationsPausesWithoutMarkingDone) {
  const Dataset data = make_data(905);
  EngineConfig config;
  config.hits = 4;
  config.max_iterations = 1;
  Engine session(data.tumor, data.normal, config, make_kernel_evaluator(4));
  session.run();
  EXPECT_EQ(session.iterations_committed(), 1u);
  // The cap pauses the session; it does NOT mean the cover finished.
  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.step(1), 0u);
}

TEST(EngineSession, MismatchedEvaluatorRankFailsLoudly) {
  // An evaluator enumerating a different hit count than config.hits returns
  // ranks from the wrong combination space; unranking one fabricates gene
  // indices past the matrix (cancer_panel once fed BRCA's 2-hit config a
  // 4-hit kernel and read wild). The session must throw, not read OOB.
  const Dataset data = make_data(907);
  EngineConfig config;
  config.hits = 2;
  const Evaluator wrong_space = [](const BitMatrix&, const BitMatrix&, const FContext&) {
    EvalResult r;
    r.valid = true;
    r.tp = 1;
    r.f = 1.0;
    r.combo_rank = 35959;  // C(32,4)-1: a 4-hit rank, far past C(32,2)-1 = 495
    return r;
  };
  Engine session(data.tumor, data.normal, config, wrong_space);
  EXPECT_THROW(session.step(1), std::logic_error);
}

TEST(EngineSession, MisreportedTpFailsInEveryBuild) {
  // The evaluator's TP decides how many samples the exclusion removes. A
  // wrong one must stop the session in release builds too, naming the
  // iteration and both counts.
  const Dataset data = make_data(908);
  EngineConfig config;
  config.hits = 4;
  const Evaluator kernel = make_kernel_evaluator(4);
  std::uint32_t calls = 0;
  const Evaluator misreporting = [&](const BitMatrix& tumor, const BitMatrix& normal,
                                     const FContext& ctx) {
    EvalResult best = kernel(tumor, normal, ctx);
    if (calls++ == 1) best.tp += 1;
    return best;
  };
  Engine session(data.tumor, data.normal, config, misreporting);
  ASSERT_EQ(session.step(1), 1u);
  const std::uint64_t true_tp = [&] {
    Engine reference(session.checkpoint(), data.normal, config, kernel);
    reference.step(1);
    return reference.result().iterations.back().tp;
  }();
  try {
    session.step(1);
    FAIL() << "a misreported tp was committed";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("iteration 1"), std::string::npos) << message;
    EXPECT_NE(message.find("tp = " + std::to_string(true_tp + 1)), std::string::npos) << message;
    EXPECT_NE(message.find("covers " + std::to_string(true_tp)), std::string::npos) << message;
  }
  EXPECT_EQ(session.iterations_committed(), 1u);
}

TEST(EngineSession, CarriedBoundsStartColdOnResumeAndStayExact) {
  // The carried bounds are the session's own: a resumed session starts
  // cold (checkpoints do not carry them) and still commits the
  // uninterrupted run's iterations, through the kernel and the host sweep,
  // in both exclusion modes.
  const Dataset data = make_data(909);
  HostSweepOptions one, four;
  one.hits = four.hits = 4;
  one.threads = 1;
  four.threads = 4;
  const std::vector<std::pair<const char*, Evaluator>> evaluators = {
      {"kernel", make_kernel_evaluator(4)},
      {"host-sweep x1", make_host_sweep_evaluator(one)},
      {"host-sweep x4", make_host_sweep_evaluator(four)},
  };
  for (const bool splicing : {true, false}) {
    EngineConfig config;
    config.hits = 4;
    config.bit_splicing = splicing;
    const GreedyResult serial =
        run_greedy(data.tumor, data.normal, config, make_serial_evaluator(4));
    ASSERT_GE(serial.iterations.size(), 3u);
    for (const auto& [name, inner] : evaluators) {
      std::vector<bool> warm;  // per evaluation: were the bounds warm going in
      const Evaluator watched = [&, inner = inner](const BitMatrix& tumor,
                                                   const BitMatrix& normal,
                                                   const FContext& ctx) {
        warm.push_back(ctx.carried != nullptr && ctx.carried->warm());
        return inner(tumor, normal, ctx);
      };
      Engine first(data.tumor, data.normal, config, watched);
      ASSERT_EQ(first.step(2), 2u) << name;
      Engine resumed(first.checkpoint(), data.normal, config, watched);
      first.run();
      const std::size_t resumed_from = warm.size();
      resumed.run();
      expect_same_result(first.result(), serial, name);
      expect_same_result(resumed.result(), serial, name);
      ASSERT_GT(warm.size(), resumed_from) << name;
      EXPECT_FALSE(warm[0]) << name;
      EXPECT_TRUE(warm[1]) << name;
      EXPECT_FALSE(warm[resumed_from]) << name << ": a resumed session must start cold";
    }
  }
}

TEST(EngineSession, OneEvaluatorServesInterleavedSessionsOnDifferentData) {
  // Two datasets of the same shape, stepped alternately through one
  // evaluator object: each session keeps its own carried bounds, so each
  // commits its own serial reference.
  const Dataset a = make_data(910);
  const Dataset b = make_data(911);
  EngineConfig config;
  config.hits = 4;
  const GreedyResult ref_a = run_greedy(a.tumor, a.normal, config, make_serial_evaluator(4));
  const GreedyResult ref_b = run_greedy(b.tumor, b.normal, config, make_serial_evaluator(4));
  HostSweepOptions sweep;
  sweep.hits = 4;
  sweep.threads = 2;
  for (const Evaluator& evaluator : {make_kernel_evaluator(4), make_host_sweep_evaluator(sweep)}) {
    Engine first(a.tumor, a.normal, config, evaluator);
    Engine second(b.tumor, b.normal, config, evaluator);
    while (!first.done() || !second.done()) {
      (void)first.step(1);
      (void)second.step(1);
    }
    expect_same_result(first.result(), ref_a, "dataset a");
    expect_same_result(second.result(), ref_b, "dataset b");
  }
}

TEST(EngineSession, ValidatesLikeRunGreedy) {
  const Dataset data = make_data(906);
  EngineConfig config;
  config.hits = 4;
  const BitMatrix wrong_normal(data.genes() + 1, 10);
  EXPECT_THROW(Engine(data.tumor, wrong_normal, config, make_serial_evaluator(4)),
               std::invalid_argument);
  EngineConfig zero_hits;
  zero_hits.hits = 0;
  EXPECT_THROW(Engine(data.tumor, data.normal, zero_hits, make_serial_evaluator(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace multihit
