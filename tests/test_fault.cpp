// Differential and property tests for the fault-injection/recovery layer.
//
// The load-bearing invariant: any valid fault plan yields greedy selections
// bit-identical to the fault-free serial reference — faults may only stretch
// the simulated clocks. Every differential test below compares a faulted
// distributed run against `run_greedy` + the serial evaluator.

#include "fault/injector.hpp"
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "cluster/distributed.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "data/generator.hpp"
#include "mpisim/comm.hpp"

namespace multihit {
namespace {

Dataset small_dataset(std::uint32_t hits, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = hits;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = seed;
  return generate_dataset(spec);
}

/// Comm model tuned so fault penalties dominate compute jitter: deterministic
/// severity-monotonicity assertions stay far from floating-point ties.
CommCostModel loud_faults() {
  CommCostModel comm;
  comm.detection_window = 0.2;
  comm.retransmit_timeout = 0.05;
  return comm;
}

SummitConfig tiny_cluster(std::uint32_t nodes, CommCostModel comm = {}) {
  SummitConfig config;
  config.nodes = nodes;
  config.comm = comm;
  return config;
}

GreedyResult serial_reference(const Dataset& data, std::uint32_t hits) {
  EngineConfig engine;
  engine.hits = hits;
  return run_greedy(data.tumor, data.normal, engine, make_serial_evaluator(hits));
}

void expect_same_selections(const GreedyResult& got, const GreedyResult& want,
                            const std::string& context) {
  ASSERT_EQ(got.iterations.size(), want.iterations.size()) << context;
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].genes, want.iterations[i].genes)
        << context << ", iteration " << i;
    EXPECT_DOUBLE_EQ(got.iterations[i].f, want.iterations[i].f)
        << context << ", iteration " << i;
  }
  EXPECT_EQ(got.uncovered_tumor, want.uncovered_tumor) << context;
}

FaultEvent crash(std::uint32_t rank, std::uint32_t iteration, double fraction = 0.5) {
  return {FaultKind::kRankCrash, rank, iteration, fraction, 1};
}

FaultEvent straggle(std::uint32_t rank, std::uint32_t iteration, double factor,
                    std::uint32_t window = 1) {
  return {FaultKind::kStraggler, rank, iteration, factor, window};
}

FaultEvent drop(std::uint32_t rank, std::uint32_t iteration, std::uint32_t count) {
  return {FaultKind::kMessageDrop, rank, iteration, 0.0, count};
}

// --- plan validation ---------------------------------------------------------

TEST(FaultPlan, ValidationRejectsMalformedPlans) {
  FaultPlan plan;
  plan.events.push_back(crash(7, 0));
  EXPECT_THROW(plan.validate(4), std::invalid_argument);  // rank out of range
  EXPECT_NO_THROW(plan.validate(8));

  plan.events = {crash(1, 0, 0.0)};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);  // fraction must be > 0
  plan.events = {crash(1, 0, 1.5)};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);

  plan.events = {crash(1, 0), crash(1, 3)};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);  // a rank dies once

  plan.events = {crash(0, 0), crash(1, 1)};
  EXPECT_THROW(plan.validate(2), std::invalid_argument);  // no survivor left
  EXPECT_NO_THROW(plan.validate(3));

  plan.events = {straggle(0, 0, 0.5)};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);  // speedup is not a fault
  plan.events = {straggle(0, 0, 2.0, 0)};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);  // empty window
  plan.events = {drop(0, 0, 0)};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);  // empty drop burst
}

TEST(FaultPlan, RandomPlansAreDeterministicAndValid) {
  RandomFaultSpec spec;
  spec.seed = 42;
  spec.ranks = 8;
  spec.iterations = 6;
  spec.crashes = 2.0;
  spec.stragglers = 1.5;
  spec.drops = 1.0;
  const FaultPlan a = random_fault_plan(spec);
  const FaultPlan b = random_fault_plan(spec);
  EXPECT_EQ(describe(a), describe(b));  // identical spec -> identical plan
  EXPECT_NO_THROW(a.validate(spec.ranks));

  spec.seed = 43;
  const FaultPlan c = random_fault_plan(spec);
  EXPECT_NO_THROW(c.validate(spec.ranks));
}

TEST(FaultInjector, AnswersPlanQueries) {
  FaultPlan plan;
  plan.events = {crash(1, 2, 0.25), straggle(2, 1, 3.0, 2), drop(3, 0, 4)};
  const FaultInjector injector(plan, 4);
  EXPECT_TRUE(injector.enabled());
  EXPECT_DOUBLE_EQ(injector.crash_fraction(1, 2), 0.25);
  EXPECT_LT(injector.crash_fraction(1, 1), 0.0);
  EXPECT_LT(injector.crash_fraction(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(injector.straggle_factor(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(injector.straggle_factor(2, 2), 3.0);  // window of 2
  EXPECT_DOUBLE_EQ(injector.straggle_factor(2, 3), 1.0);
  EXPECT_EQ(injector.drops(3, 0), 4u);
  EXPECT_EQ(injector.drops(3, 1), 0u);
  EXPECT_FALSE(injector.job_abort(0));
}

// --- SimComm fault primitives ------------------------------------------------

TEST(SimCommFaults, DeathChargesSurvivorsOneDetectionWindow) {
  CommCostModel cost = loud_faults();
  SimComm comm(4, cost);
  for (std::uint32_t r = 0; r < 4; ++r) comm.compute(r, 1.0);
  comm.fail(2, 1.5);
  EXPECT_FALSE(comm.alive(2));
  EXPECT_EQ(comm.alive_count(), 3u);
  EXPECT_EQ(comm.alive_ranks(), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(comm.clock(2), 1.5);  // frozen at the death time

  comm.barrier();
  // Every survivor waited out death + detection window (plus barrier rounds).
  for (const std::uint32_t r : comm.alive_ranks()) {
    EXPECT_GE(comm.clock(r), 1.5 + cost.detection_window);
  }
  // The window is charged once: a second barrier only costs tree latency.
  const double after_first = comm.finish_time();
  comm.barrier();
  EXPECT_LT(comm.finish_time() - after_first, cost.detection_window / 10.0);
}

TEST(SimCommFaults, DeadRanksAreFrozenAndGuarded) {
  SimComm comm(3);
  comm.fail(1, 4.0);
  comm.compute(1, 10.0);  // no-op on a corpse
  EXPECT_DOUBLE_EQ(comm.clock(1), 4.0);
  EXPECT_THROW(comm.fail(1, 5.0), std::invalid_argument);  // already dead

  std::vector<int> values{7, 9, 11};
  EXPECT_THROW(comm.reduce(std::span<const int>(values), 1, 4,
                           [](int a, int b) { return a + b; }),
               std::invalid_argument);  // dead root
  EXPECT_THROW(comm.broadcast(1, 4), std::invalid_argument);
  // Dead ranks' contributions are excluded from the reduction.
  const int sum = comm.reduce(std::span<const int>(values), 0, 4,
                              [](int a, int b) { return a + b; });
  EXPECT_EQ(sum, 7 + 11);

  comm.fail(2, 1.0);
  EXPECT_THROW(comm.fail(0, 2.0), std::runtime_error);  // last survivor
}

TEST(SimCommFaults, DroppedMessagesCostRetransmitTimeouts) {
  const CommCostModel cost = loud_faults();
  SimComm clean(2, cost);
  SimComm faulty(2, cost);
  faulty.set_message_faults([](std::uint32_t, std::uint32_t, std::uint64_t) {
    return MessageFault{.drops = 3, .duplicates = 0};
  });
  clean.send(0, 1, 100);
  faulty.send(0, 1, 100);
  EXPECT_NEAR(faulty.clock(1) - clean.clock(1), 3 * cost.retransmit_timeout, 1e-12);
  EXPECT_GT(faulty.clock(0), clean.clock(0));  // sender re-injects each copy

  // Clearing the hook restores fault-free transfer cost for later messages.
  faulty.set_message_faults({});
  const double before = faulty.clock(1);
  faulty.send(0, 1, 100);
  EXPECT_NEAR(faulty.clock(1) - before, cost.cost(100), 1e-12);
}

// --- differential suite: faulted cluster vs fault-free serial ----------------

struct DifferentialCase {
  std::uint32_t nodes;
  Scheme scheme;
};

class FaultDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(FaultDifferential, CrashRecoveryIsBitIdenticalToSerial) {
  const auto [nodes, scheme] = GetParam();
  const Dataset data = small_dataset(4, 501);
  const GreedyResult serial = serial_reference(data, 4);

  DistributedOptions options;
  options.inner = scheme.hits - scheme.flat;
  const ClusterRunner runner(tiny_cluster(nodes));
  const ClusterRunResult clean = runner.run(data, options);

  DistributedOptions faulted = options;
  faulted.faults.events = {crash(1, 0, 0.5)};
  if (nodes >= 16) faulted.faults.events.push_back(crash(3, 1, 0.9));
  const ClusterRunResult result = runner.run(data, faulted);

  std::ostringstream context;
  context << nodes << " nodes, scheme " << scheme_name(scheme);
  expect_same_selections(result.greedy, serial, context.str());
  expect_same_selections(clean.greedy, serial, context.str() + " (fault-free)");

  EXPECT_EQ(result.ranks_lost, nodes >= 16 ? 2u : 1u);
  EXPECT_GT(result.recovery_time, 0.0);
  EXPECT_GT(result.total_time, clean.total_time) << context.str();
  EXPECT_GT(result.schedule_time, clean.schedule_time);  // re-partition happened
  bool saw_crash = false;
  for (const FaultRecord& rec : result.fault_events) {
    saw_crash = saw_crash || rec.kind == FaultKind::kRankCrash;
  }
  EXPECT_TRUE(saw_crash);
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndSchemes, FaultDifferential,
    ::testing::Values(DifferentialCase{4, Scheme{4, 3}}, DifferentialCase{16, Scheme{4, 3}},
                      DifferentialCase{64, Scheme{4, 3}}, DifferentialCase{4, Scheme{4, 2}},
                      DifferentialCase{16, Scheme{4, 2}}, DifferentialCase{64, Scheme{4, 2}}),
    [](const auto& info) {
      return std::string(scheme_name(info.param.scheme)) + "x" +
             std::to_string(info.param.nodes);
    });

TEST(FaultDifferentialMore, StragglersAndDropsAreBitIdenticalToSerial) {
  const Dataset data = small_dataset(4, 502);
  const GreedyResult serial = serial_reference(data, 4);
  const ClusterRunner runner(tiny_cluster(8, loud_faults()));

  DistributedOptions stragglers;
  stragglers.faults.events = {straggle(2, 0, 4.0, 3), straggle(5, 1, 2.0)};
  expect_same_selections(runner.run(data, stragglers).greedy, serial, "stragglers");

  DistributedOptions drops;
  drops.faults.events = {drop(1, 0, 2), drop(6, 1, 5)};
  expect_same_selections(runner.run(data, drops).greedy, serial, "drops");

  DistributedOptions mixed;
  mixed.faults.events = {crash(3, 0, 0.3), straggle(1, 0, 2.5, 2), drop(2, 1, 3)};
  const ClusterRunResult result = runner.run(data, mixed);
  expect_same_selections(result.greedy, serial, "mixed plan");
  EXPECT_EQ(result.ranks_lost, 1u);
}

TEST(FaultDifferentialMore, ThreeHitCrashRecoveryMatchesSerial) {
  const Dataset data = small_dataset(3, 503);
  const GreedyResult serial = serial_reference(data, 3);
  DistributedOptions options;
  options.hits = 3;
  options.faults.events = {crash(0, 0, 0.7)};  // rank 0 dies; root moves to rank 1
  const ClusterRunner runner(tiny_cluster(4));
  const ClusterRunResult result = runner.run(data, options);
  expect_same_selections(result.greedy, serial, "3-hit, root crash");
  EXPECT_EQ(result.ranks_lost, 1u);
}

TEST(FaultDifferentialMore, RandomPlansStayBitIdenticalToSerial) {
  const Dataset data = small_dataset(4, 504);
  const GreedyResult serial = serial_reference(data, 4);
  const ClusterRunner runner(tiny_cluster(8, loud_faults()));
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    RandomFaultSpec spec;
    spec.seed = seed;
    spec.ranks = 8;
    spec.iterations = 4;
    spec.crashes = 1.5;
    spec.stragglers = 1.0;
    spec.drops = 1.0;
    DistributedOptions options;
    options.faults = random_fault_plan(spec);
    const ClusterRunResult result = runner.run(data, options);
    expect_same_selections(result.greedy, serial,
                           "seed " + std::to_string(seed) + ": " + describe(options.faults));
  }
}

// --- severity monotonicity ---------------------------------------------------

TEST(FaultSeverity, WallClockGrowsStrictlyWithCrashCount) {
  const Dataset data = small_dataset(4, 505);
  const ClusterRunner runner(tiny_cluster(8, loud_faults()));
  DistributedOptions none;
  DistributedOptions one;
  one.faults.events = {crash(1, 0)};
  DistributedOptions two;
  two.faults.events = {crash(1, 0), crash(4, 1)};
  const double t0 = runner.run(data, none).total_time;
  const double t1 = runner.run(data, one).total_time;
  const double t2 = runner.run(data, two).total_time;
  EXPECT_LT(t0, t1);
  EXPECT_LT(t1, t2);
}

TEST(FaultSeverity, WallClockGrowsStrictlyWithStraggleFactor) {
  const Dataset data = small_dataset(4, 506);
  const ClusterRunner runner(tiny_cluster(8, loud_faults()));
  double previous = runner.run(data, DistributedOptions{}).total_time;
  for (const double factor : {2.0, 8.0}) {
    DistributedOptions options;
    options.faults.events = {straggle(1, 0, factor, 2)};
    const double t = runner.run(data, options).total_time;
    EXPECT_LT(previous, t) << "factor " << factor;
    previous = t;
  }
}

TEST(FaultSeverity, WallClockGrowsStrictlyWithDropCount) {
  const Dataset data = small_dataset(4, 507);
  const ClusterRunner runner(tiny_cluster(8, loud_faults()));
  double previous = runner.run(data, DistributedOptions{}).total_time;
  for (const std::uint32_t count : {1u, 4u}) {
    DistributedOptions options;
    options.faults.events = {drop(1, 0, count)};
    const double t = runner.run(data, options).total_time;
    EXPECT_LT(previous, t) << "count " << count;
    previous = t;
  }
}

// --- checkpointing and allocation loss ---------------------------------------

TEST(FaultCheckpoint, PeriodicSnapshotsAreTakenAndResumable) {
  const Dataset data = small_dataset(4, 508);
  const GreedyResult serial = serial_reference(data, 4);
  DistributedOptions options;
  options.checkpoint_every = 1;
  const ClusterRunner runner(tiny_cluster(4));
  const ClusterRunResult result = runner.run(data, options);
  expect_same_selections(result.greedy, serial, "checkpointed run");
  EXPECT_EQ(result.checkpoints_taken, serial.iterations.size());
  EXPECT_GT(result.checkpoint_time, 0.0);
  ASSERT_TRUE(result.last_checkpoint.has_value());

  // The snapshot must survive serialization and resume to the identical end
  // state under the serial evaluator.
  std::stringstream stream;
  write_checkpoint(stream, *result.last_checkpoint);
  Engine resumed(read_checkpoint(stream), data.normal, EngineConfig{},
                 make_serial_evaluator(4));
  expect_same_selections(resumed.run(), serial, "resumed from last snapshot");
}

TEST(FaultCheckpoint, MidRunSnapshotResumesToSerialTail) {
  const Dataset data = small_dataset(4, 509);
  const GreedyResult serial = serial_reference(data, 4);
  ASSERT_GE(serial.iterations.size(), 2u);
  DistributedOptions options;
  options.checkpoint_every = 1;
  options.max_iterations = 1;  // stop after the first snapshot
  const ClusterRunner runner(tiny_cluster(4));
  const ClusterRunResult result = runner.run(data, options);
  ASSERT_TRUE(result.last_checkpoint.has_value());
  ASSERT_EQ(result.last_checkpoint->progress.iterations.size(), 1u);
  Engine tail(*result.last_checkpoint, data.normal, EngineConfig{}, make_serial_evaluator(4));
  expect_same_selections(tail.run(), serial, "1-iteration snapshot + serial tail");
}

TEST(FaultCheckpoint, JobAbortChargesLostTimeAndStaysIdentical) {
  const Dataset data = small_dataset(4, 510);
  const GreedyResult serial = serial_reference(data, 4);
  ASSERT_GE(serial.iterations.size(), 3u);
  const ClusterRunner runner(tiny_cluster(4));

  DistributedOptions clean;
  clean.checkpoint_every = 1;
  const ClusterRunResult baseline = runner.run(data, clean);

  DistributedOptions aborted = clean;
  aborted.faults.events.push_back({FaultKind::kJobAbort, 0, 2, 0.0, 1});
  const ClusterRunResult result = runner.run(data, aborted);
  expect_same_selections(result.greedy, serial, "abort at iteration 2");
  EXPECT_GT(result.total_time, baseline.total_time);
  EXPECT_GT(result.recovery_time, 0.0);
  ASSERT_EQ(result.fault_events.size(), 1u);
  EXPECT_EQ(result.fault_events.front().kind, FaultKind::kJobAbort);
  EXPECT_EQ(result.fault_events.front().iteration, 2u);
}

TEST(FaultCheckpoint, PlanValidationHappensBeforeTheRun) {
  const Dataset data = small_dataset(4, 511);
  DistributedOptions options;
  options.faults.events = {crash(9, 0)};  // only 4 ranks exist
  const ClusterRunner runner(tiny_cluster(4));
  EXPECT_THROW(runner.run(data, options), std::invalid_argument);
}

}  // namespace
}  // namespace multihit
