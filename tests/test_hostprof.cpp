// Host-profiler harness (src/obs/hostprof.hpp + the core/hostsweep.cpp
// instrumentation seam).
//
// The load-bearing properties, in order:
//   * attaching a profiler never changes what the sweep selects (the
//     selections stay bit-identical to the unprofiled run);
//   * the hostsweep.* counters are byte-identical across repeated runs and
//     across bitops backends of the same configuration — wall clock and
//     kernel implementation leave no fingerprint on them;
//   * the trace's span counts agree with the counters (one claim and one
//     evaluate span per evaluated chunk, one tail_idle span per worker
//     drain), and the trace round-trips through tracer_from_chrome byte for
//     byte, so obstool reads exactly what the run recorded.

#include "obs/hostprof.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bitmat/bitops.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "data/generator.hpp"
#include "obs/analyze.hpp"

namespace multihit {
namespace {

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

HostSweepOptions sweep_options(std::uint32_t hits, std::uint32_t threads,
                               HostProfiler* profiler = nullptr) {
  HostSweepOptions options;
  options.hits = hits;
  options.threads = threads;
  options.profiler = profiler;
  return options;
}

/// A profiler recording its counters into its own registry.
struct Profiled {
  obs::MetricsRegistry metrics;
  HostProfiler profiler{&metrics};

  double counter(const char* name) { return metrics.counter(name).value(); }
  double evaluated_chunks() {
    return counter("hostsweep.chunks") - counter("hostsweep.skipped_chunks");
  }
};

std::map<std::string, double> span_counts(const obs::Tracer& trace) {
  std::map<std::string, double> counts;
  for (const obs::TraceEvent& event : trace.events()) counts[event.name] += 1.0;
  return counts;
}

std::string span_arg(const obs::TraceEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.args) {
    if (k == key) return v;
  }
  return {};
}

void profiled_greedy(const Fixture& f, Profiled& run) {
  EngineConfig config;
  config.hits = 3;
  (void)run_greedy(f.data.tumor, f.data.normal, config,
                   make_host_sweep_evaluator(sweep_options(3, 3, &run.profiler)));
}

// --- profiling leaves selections untouched ----------------------------------

TEST(HostProf, ProfiledSweepSelectsIdenticallyToUnprofiled) {
  const Fixture f = make_fixture(3, 701);
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const EvalResult plain = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                                                  sweep_options(3, threads));
    HostProfiler profiler;
    const EvalResult profiled = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                                                     sweep_options(3, threads, &profiler));
    ASSERT_TRUE(plain.valid);
    EXPECT_EQ(profiled.f, plain.f) << "threads=" << threads;
    EXPECT_EQ(profiled.combo_rank, plain.combo_rank) << "threads=" << threads;
    EXPECT_EQ(profiled.tp, plain.tp);
    EXPECT_EQ(profiled.tn, plain.tn);
  }
}

// --- collection invariants ---------------------------------------------------

TEST(HostProf, ProfileAccountsForEveryChunkPollAndCall) {
  // 378 λ at 3 hits: three workers split them into six 64-λ chunks.
  const Fixture f = make_fixture(3, 702);
  Profiled run;
  HostSweepTelemetry telemetry;
  const EvalResult best = host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                                               sweep_options(3, 3, &run.profiler), &telemetry);
  ASSERT_TRUE(best.valid);

  EXPECT_EQ(telemetry.chunks, 6u);
  EXPECT_EQ(run.counter("hostsweep.sweeps"), 1.0);
  EXPECT_EQ(run.counter("hostsweep.chunks"), static_cast<double>(telemetry.chunks));
  EXPECT_EQ(run.counter("hostsweep.claims"), run.counter("hostsweep.chunks"));
  // Each launched worker's drain fails exactly once, so ChunkQueue::polls()
  // at quiescence is chunks + workers.
  EXPECT_EQ(run.counter("hostsweep.empty_polls"), static_cast<double>(telemetry.threads));
  EXPECT_EQ(run.counter("hostsweep.candidates"), static_cast<double>(telemetry.candidates));
  EXPECT_EQ(run.counter("hostsweep.combinations"),
            static_cast<double>(telemetry.counts.combinations));
  EXPECT_GT(run.counter("hostsweep.and2_calls") + run.counter("hostsweep.and_rows_calls"), 0.0);

  const obs::Tracer trace = run.profiler.trace();
  std::map<std::string, double> spans = span_counts(trace);
  EXPECT_EQ(spans["evaluate"], run.evaluated_chunks());
  EXPECT_EQ(spans["claim"], spans["evaluate"]);
  EXPECT_EQ(spans["tail_idle"], static_cast<double>(telemetry.threads));
  EXPECT_EQ(spans["sweep"], 1.0);
  EXPECT_EQ(spans["merge"], 1.0);
  EXPECT_TRUE(trace.per_lane_monotone());
  for (const obs::TraceEvent& event : trace.events()) {
    EXPECT_GE(event.begin, 0.0) << event.name;  // seconds since construction
    EXPECT_EQ(event.lane < telemetry.threads, event.name != "sweep" && event.name != "merge")
        << event.name << " on lane " << event.lane;
  }
  ASSERT_EQ(run.profiler.profile().sweeps.size(), 1u);
  EXPECT_GE(run.profiler.profile().sweeps[0].wall_seconds,
            run.profiler.profile().sweeps[0].merge_seconds);
  // Counting is restored after the profiled sweep — callers never pay.
  EXPECT_FALSE(call_counting());
}

TEST(HostProf, WorkerClampAndMultiSweepAccumulation) {
  const Fixture f = make_fixture(2, 703);
  Profiled run;
  // 28 λ at 2 hits are less than one 64-thread block, so one chunk: the
  // requested 8 workers clamp down, and the trace must show the clamped
  // count, not the request.
  const HostSweepOptions options = sweep_options(2, 8, &run.profiler);
  HostSweepTelemetry first_sweep, second_sweep;
  const EvalResult first =
      host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &first_sweep);
  const EvalResult second =
      host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx, options, &second_sweep);
  ASSERT_TRUE(first.valid);
  EXPECT_EQ(second.f, first.f);
  EXPECT_EQ(first_sweep.threads, 1u);

  EXPECT_EQ(run.counter("hostsweep.sweeps"), 2.0);
  EXPECT_EQ(run.counter("hostsweep.chunks"),
            static_cast<double>(first_sweep.chunks + second_sweep.chunks));
  EXPECT_EQ(run.counter("hostsweep.combinations"),
            static_cast<double>(first_sweep.counts.combinations +
                                second_sweep.counts.combinations));
  EXPECT_EQ(run.profiler.profile().sweeps.size(), 2u);

  const obs::Tracer trace = run.profiler.trace();
  std::map<std::string, double> spans = span_counts(trace);
  EXPECT_EQ(spans["sweep"], 2.0);
  EXPECT_EQ(spans["tail_idle"], 2.0 * first_sweep.threads);
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.name != "sweep") continue;
    EXPECT_EQ(span_arg(event, "workers"), std::to_string(first_sweep.threads));
    EXPECT_EQ(span_arg(event, "chunk_size"), std::to_string(first_sweep.chunk_size));
    EXPECT_EQ(span_arg(event, "hits"), "2");
  }
  // Lanes are named for launched workers only, plus the sweep lane.
  EXPECT_EQ(trace.lane_names().size(), 1u + first_sweep.threads);
}

// --- determinism across backends and runs -----------------------------------

TEST(HostProf, DeterministicProjectionIdenticalAcrossRunsAndBackends) {
  const Fixture f = make_fixture(3, 704);
  const auto counters = [&]() {
    Profiled run;
    EngineConfig config;
    config.hits = 3;
    (void)run_greedy(f.data.tumor, f.data.normal, config,
                     make_host_sweep_evaluator(sweep_options(3, 4, &run.profiler)));
    return run.metrics.to_json();
  };

  const BitopsBackend previous = active_backend();
  ASSERT_TRUE(set_backend(BitopsBackend::kScalar));
  const std::string scalar_run1 = counters();
  const std::string scalar_run2 = counters();
  EXPECT_EQ(scalar_run1, scalar_run2) << "counters vary run to run";

  if (backend_supported(BitopsBackend::kAvx2)) {
    ASSERT_TRUE(set_backend(BitopsBackend::kAvx2));
    EXPECT_EQ(counters(), scalar_run1) << "counters vary across bitops backends";
  }
  set_backend(previous);
}

TEST(HostProf, CallCountsAreDispatchLevelIdenticalAcrossThreadCounts) {
  // The counting wrappers count dispatched calls, not kernel work, so the
  // totals depend only on the enumeration and the chunks — not on how chunks
  // land on workers. 378 λ at 3 hits round to 64-λ chunks at 2, 3 and 5
  // workers alike, which then claim them in different orders.
  const Fixture f = make_fixture(3, 705);
  double and2 = 0.0, and_rows = 0.0;
  for (const std::uint32_t threads : {2u, 3u, 5u}) {
    Profiled run;
    HostSweepTelemetry telemetry;
    (void)host_sweep_find_best(f.data.tumor, f.data.normal, f.ctx,
                               sweep_options(3, threads, &run.profiler), &telemetry);
    EXPECT_EQ(telemetry.chunk_size, 64u) << "threads=" << threads;
    if (threads == 2u) {
      and2 = run.counter("hostsweep.and2_calls");
      and_rows = run.counter("hostsweep.and_rows_calls");
      EXPECT_GT(and2 + and_rows, 0.0);
    } else {
      EXPECT_EQ(run.counter("hostsweep.and2_calls"), and2) << "threads=" << threads;
      EXPECT_EQ(run.counter("hostsweep.and_rows_calls"), and_rows) << "threads=" << threads;
    }
  }
}

// --- the trace through the offline tools ------------------------------------

TEST(HostProf, ReportReplaysByteIdentically) {
  const Fixture f = make_fixture(3, 707);
  Profiled run;
  profiled_greedy(f, run);
  const obs::Tracer live = run.profiler.trace();
  const std::string emitted = live.to_chrome_json();

  // obstool reads the file back: re-export, flamegraph and analysis of the
  // parsed trace equal the in-process ones.
  const obs::Tracer parsed = obs::tracer_from_chrome(obs::JsonValue::parse(emitted));
  EXPECT_EQ(parsed.to_chrome_json(), emitted);
  EXPECT_EQ(obs::folded_stacks(parsed), obs::folded_stacks(live));
  const obs::TraceAnalysis analysis = obs::analyze_trace(parsed);
  EXPECT_EQ(obs::analysis_text(analysis), obs::analysis_text(obs::analyze_trace(live)));

  // The worker lanes are the analysis' rank lanes; each host phase is there.
  std::set<std::string> phases;
  for (const obs::PhaseStat& stat : analysis.phases) phases.insert(stat.phase);
  EXPECT_EQ(phases, (std::set<std::string>{"claim", "evaluate", "tail_idle"}));
  EXPECT_EQ(span_counts(parsed)["evaluate"], run.evaluated_chunks());
}

TEST(HostProf, FoldedExportIsSortedIntegerMicrosecondStacks) {
  // Cold sweeps over 10-word rows: every evaluated chunk computes its
  // threads' prefix intersections, so it lasts well over a microsecond.
  SyntheticSpec spec;
  spec.genes = 60;
  spec.tumor_samples = 640;
  spec.normal_samples = 448;
  spec.hits = 3;
  spec.num_combinations = 3;
  spec.background_rate = 0.04;
  spec.seed = 709;
  const Dataset data = generate_dataset(spec);
  const FContext ctx{FParams{}, spec.tumor_samples, spec.normal_samples};
  Profiled run;
  for (int sweep = 0; sweep < 3; ++sweep) {
    (void)host_sweep_find_best(data.tumor, data.normal, ctx, sweep_options(3, 3, &run.profiler));
  }
  const obs::Tracer trace = run.profiler.trace();
  const std::string folded = obs::folded_stacks(trace);
  ASSERT_FALSE(folded.empty());

  // Which workers evaluate depends on scheduling: an evaluate stack appears
  // for exactly the worker slots that evaluated a chunk, and one at least did.
  std::set<std::uint32_t> evaluating;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.name == "evaluate") evaluating.insert(event.lane);
  }
  EXPECT_FALSE(evaluating.empty());
  for (std::uint32_t worker = 0; worker < 3; ++worker) {
    const std::string stack = "\nworker " + std::to_string(worker) + ";evaluate ";
    EXPECT_EQ(("\n" + folded).find(stack) != std::string::npos, evaluating.count(worker) == 1)
        << stack;
  }

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
