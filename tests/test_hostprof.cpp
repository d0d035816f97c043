// Host-profiler harness (src/obs/hostprof.hpp + the core/hostsweep.cpp
// instrumentation seam).
//
// The load-bearing properties, in order:
//   * attaching a profiler never changes what the sweep selects (the
//     selections stay bit-identical to the unprofiled run);
//   * the deterministic projection is byte-identical across repeated runs
//     and across bitops backends of the same configuration — wall clock and
//     kernel implementation leave no fingerprint on gated fields;
//   * the full report round-trips exactly: parse -> re-render reproduces the
//     in-process document byte for byte (the offline-replay gate);
//   * the crosscheck catches corrupted documents (the obstool exit-1 path).

#include "obs/hostprof.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bitmat/bitops.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
#include "hostile_json.hpp"

namespace multihit {
namespace {

using obs::HostProfile;
using obs::HostProfiler;

struct Fixture {
  Dataset data;
  FContext ctx;
};

Fixture make_fixture(std::uint32_t hits, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 28;
  spec.tumor_samples = 60;
  spec.normal_samples = 44;
  spec.hits = hits;
  spec.num_combinations = 3;
  spec.background_rate = 0.04;
  spec.seed = seed;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

HostSweepOptions sweep_options(std::uint32_t hits, std::uint32_t threads, std::uint64_t chunk,
                               HostProfiler* profiler = nullptr) {
  HostSweepOptions options;
  options.hits = hits;
  options.threads = threads;
  options.chunk = chunk;
  options.profiler = profiler;
  return options;
}

// --- profiling leaves selections untouched ----------------------------------

TEST(HostProf, ProfiledSweepSelectsIdenticallyToUnprofiled) {
  const Fixture f = make_fixture(3, 701);
  for (const std::uint32_t threads : {1u, 4u}) {
    const EvalResult plain = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                                                  sweep_options(3, threads, 57));
    HostProfiler profiler;
    const EvalResult profiled = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                                                     sweep_options(3, threads, 57, &profiler));
    ASSERT_TRUE(plain.valid);
    EXPECT_EQ(profiled.f, plain.f) << "threads=" << threads;
    EXPECT_EQ(profiled.combo_rank, plain.combo_rank) << "threads=" << threads;
    EXPECT_EQ(profiled.tp, plain.tp);
    EXPECT_EQ(profiled.tn, plain.tn);
  }
}

// --- collection invariants ---------------------------------------------------

TEST(HostProf, ProfileAccountsForEveryChunkPollAndCall) {
  const Fixture f = make_fixture(2, 702);
  HostProfiler profiler;
  const EvalResult best = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                                               sweep_options(2, 3, 19, &profiler));
  ASSERT_TRUE(best.valid);

  const HostProfile& profile = profiler.profile();
  ASSERT_EQ(profile.sweeps.size(), 1u);
  const obs::HostSweepStat& sweep = profile.sweeps[0];
  EXPECT_EQ(sweep.chunks, sweep.chunk_count);
  // Each launched worker's drain fails exactly once, so the queue cursor at
  // quiescence is chunk_count + workers — the deterministic starvation
  // invariant read straight off ChunkQueue::polls().
  EXPECT_EQ(sweep.polls, sweep.chunk_count + sweep.workers);
  EXPECT_EQ(profile.total_empty_polls, sweep.workers);
  EXPECT_EQ(profile.total_chunks, sweep.chunk_count);
  EXPECT_EQ(profile.total_claims, profile.total_chunks);
  EXPECT_GT(profile.total_combinations, 0u);
  EXPECT_TRUE(profile.bitops_counted);
  EXPECT_GT(profile.total_calls.total(), 0u);

  // Per-worker claim histograms carry one entry per poll (successful or
  // empty), so their mass reconciles against chunks + empty polls.
  for (const obs::HostWorkerStat& worker : profile.worker_stats) {
    std::uint64_t mass = 0;
    for (const std::uint64_t count : worker.claim_histogram) mass += count;
    EXPECT_EQ(mass, worker.chunks + worker.empty_polls) << "worker " << worker.worker;
    EXPECT_EQ(worker.sweeps, 1u);
  }

  EXPECT_TRUE(obs::hostprof_crosscheck(profile).empty());
  // Counting is restored after the profiled sweep — callers never pay.
  EXPECT_FALSE(call_counting());
}

TEST(HostProf, WorkerClampAndMultiSweepAccumulation) {
  const Fixture f = make_fixture(2, 703);
  HostProfiler profiler;
  // Chunk big enough that the whole λ space is a handful of chunks: the
  // requested 8 workers clamp down, and the profile must report the clamped
  // count, not the request.
  const HostSweepOptions options = sweep_options(2, 8, 100, &profiler);
  const EvalResult first = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options);
  const EvalResult second = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options);
  ASSERT_TRUE(first.valid);
  EXPECT_EQ(second.f, first.f);

  const HostProfile& profile = profiler.profile();
  ASSERT_EQ(profile.sweeps.size(), 2u);
  EXPECT_LE(profile.workers, 8u);
  EXPECT_EQ(profile.workers, profile.sweeps[0].workers);
  EXPECT_EQ(profile.total_chunks, profile.sweeps[0].chunks + profile.sweeps[1].chunks);
  EXPECT_EQ(profile.total_combinations,
            profile.sweeps[0].combinations + profile.sweeps[1].combinations);
  for (const obs::HostWorkerStat& worker : profile.worker_stats) {
    EXPECT_EQ(worker.sweeps, 2u) << "worker " << worker.worker;
  }
  EXPECT_TRUE(obs::hostprof_crosscheck(profile).empty());
}

// --- determinism across backends and runs -----------------------------------

TEST(HostProf, DeterministicProjectionIdenticalAcrossRunsAndBackends) {
  const Fixture f = make_fixture(3, 704);
  const auto project = [&]() {
    HostProfiler profiler;
    EngineConfig config;
    config.hits = 3;
    (void)run_greedy(f.data.tumor, f.data.normal, config,
                     make_host_sweep_evaluator(sweep_options(3, 4, 41, &profiler)));
    return obs::hostprof_deterministic(profiler.profile()).dump();
  };

  const BitopsBackend previous = active_backend();
  ASSERT_TRUE(set_backend(BitopsBackend::kScalar));
  const std::string scalar_run1 = project();
  const std::string scalar_run2 = project();
  EXPECT_EQ(scalar_run1, scalar_run2) << "projection varies run to run";

  if (backend_supported(BitopsBackend::kAvx2)) {
    ASSERT_TRUE(set_backend(BitopsBackend::kAvx2));
    EXPECT_EQ(project(), scalar_run1) << "projection varies across bitops backends";
  }
  set_backend(previous);
}

TEST(HostProf, CallCountsAreDispatchLevelIdenticalAcrossThreadCounts) {
  // The counting wrappers count dispatched calls, not kernel work, so the
  // totals depend only on the enumeration — not on how chunks land on
  // workers.
  const Fixture f = make_fixture(2, 705);
  obs::HostBitopsCalls reference;
  for (const std::uint32_t threads : {1u, 2u, 5u}) {
    HostProfiler profiler;
    (void)host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                               sweep_options(2, threads, 23, &profiler));
    const obs::HostBitopsCalls& calls = profiler.profile().total_calls;
    if (threads == 1u) {
      reference = calls;
      EXPECT_GT(calls.total(), 0u);
    } else {
      EXPECT_EQ(calls.total(), reference.total()) << "threads=" << threads;
      EXPECT_EQ(calls.and2, reference.and2);
      EXPECT_EQ(calls.and_rows, reference.and_rows);
    }
  }
}

// --- rendering round trip ----------------------------------------------------

HostProfile profiled_greedy(const Fixture& f) {
  HostProfiler profiler;
  EngineConfig config;
  config.hits = 3;
  (void)run_greedy(f.data.tumor, f.data.normal, config,
                   make_host_sweep_evaluator(sweep_options(3, 3, 67, &profiler)));
  return profiler.profile();
}

TEST(HostProf, ReportReplaysByteIdentically) {
  const Fixture f = make_fixture(3, 707);
  const HostProfile profile = profiled_greedy(f);
  const std::string emitted = obs::hostprof_report(profile).dump();

  const HostProfile parsed = obs::hostprof_from_json(obs::JsonValue::parse(emitted));
  EXPECT_EQ(obs::hostprof_report(parsed).dump(), emitted);
  EXPECT_EQ(obs::hostprof_deterministic(parsed).dump(),
            obs::hostprof_deterministic(profile).dump());
  EXPECT_EQ(obs::hostprof_folded(parsed), obs::hostprof_folded(profile));
  EXPECT_TRUE(obs::hostprof_crosscheck(parsed).empty());
}

TEST(HostProf, FromJsonRejectsWrongSchemaAndIllShapedDocs) {
  EXPECT_THROW(obs::hostprof_from_json(
                   obs::JsonValue::parse(R"({"schema":"multihit.metrics.v1"})")),
               obs::HostprofError);
  EXPECT_THROW(obs::hostprof_from_json(
                   obs::JsonValue::parse(R"({"schema":"multihit.hostprof.v1"})")),
               obs::HostprofError);

  // Hostile values: each is refused before any cast, naming its path.
  const std::string doc = obs::hostprof_report(profiled_greedy(make_fixture(3, 707))).dump();
  const auto reject = [&doc](std::string_view key, std::string_view value, const char* path) {
    hostile::expect_rejected<obs::HostprofError>(obs::hostprof_from_json,
                                                 hostile::plant(doc, key, value), path);
  };
  reject("hits", "1e30", "workload.hits");
  reject("workers", "4294967297", "workload.workers");
  reject("claim_histogram", "[-1", "workers[0].claim_histogram[0]");
  reject("claim_histogram", "[0.5", "workers[0].claim_histogram[0]");
  reject("claim_histogram", "[\"x\"", "workers[0].claim_histogram[0]");
  reject("polls", "1e30", "sweeps[0].polls");
}

// --- crosscheck --------------------------------------------------------------

TEST(HostProf, CrosscheckFlagsCorruptedTotalsAndHistograms) {
  const Fixture f = make_fixture(3, 708);
  HostProfile profile = profiled_greedy(f);
  ASSERT_TRUE(obs::hostprof_crosscheck(profile).empty());

  HostProfile corrupt_totals = profile;
  corrupt_totals.total_chunks += 1;
  EXPECT_FALSE(obs::hostprof_crosscheck(corrupt_totals).empty());

  HostProfile corrupt_claims = profile;
  corrupt_claims.total_claims += 1;
  EXPECT_FALSE(obs::hostprof_crosscheck(corrupt_claims).empty());

  HostProfile corrupt_histogram = profile;
  ASSERT_FALSE(corrupt_histogram.worker_stats.empty());
  corrupt_histogram.worker_stats[0].claim_histogram[0] += 1;
  EXPECT_FALSE(obs::hostprof_crosscheck(corrupt_histogram).empty());

  HostProfile corrupt_polls = profile;
  ASSERT_FALSE(corrupt_polls.sweeps.empty());
  corrupt_polls.sweeps[0].polls += 1;
  EXPECT_FALSE(obs::hostprof_crosscheck(corrupt_polls).empty());
}

// --- folded export -----------------------------------------------------------

TEST(HostProf, FoldedExportIsSortedIntegerMicrosecondStacks) {
  const Fixture f = make_fixture(3, 709);
  const HostProfile profile = profiled_greedy(f);
  const std::string folded = obs::hostprof_folded(profile);
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("hostsweep;worker 0;evaluate "), std::string::npos);

  std::istringstream lines(folded);
  std::string line, previous_stack;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    const std::string micros = line.substr(space + 1);
    EXPECT_GT(stack.size(), 0u);
    EXPECT_GT(micros.size(), 0u);
    for (const char c : micros) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_LT(previous_stack, stack) << "stacks must be sorted and distinct";
    previous_stack = stack;
  }
}

// --- claim bucketing ---------------------------------------------------------

TEST(HostProf, ClaimBucketsCoverTheLatencyRange) {
  EXPECT_EQ(obs::claim_bucket(0.0), 0u);
  EXPECT_EQ(obs::claim_bucket(1e-7), 0u);
  EXPECT_EQ(obs::claim_bucket(2e-7), 1u);
  EXPECT_EQ(obs::claim_bucket(5e-4), 4u);
  EXPECT_EQ(obs::claim_bucket(1e-1), 6u);
  EXPECT_EQ(obs::claim_bucket(2.0), obs::kClaimBuckets - 1);
}

// --- profiler misuse ---------------------------------------------------------

TEST(HostProf, ProfilerRejectsOutOfOrderSweepCalls) {
  HostProfiler profiler;
  EXPECT_THROW(profiler.end_sweep({}), std::logic_error);
  EXPECT_THROW(profiler.record_worker(0, {}), std::logic_error);

  obs::HostSweepSetup setup;
  setup.workers = 1;
  profiler.begin_sweep(setup);
  EXPECT_THROW(profiler.begin_sweep(setup), std::logic_error);
  EXPECT_THROW(profiler.record_worker(5, {}), std::logic_error);
  profiler.end_sweep({});
  EXPECT_EQ(profiler.profile().sweeps.size(), 1u);
}

}  // namespace
}  // namespace multihit
