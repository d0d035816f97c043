#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/distributed.hpp"
#include "cluster/model.hpp"
#include "data/generator.hpp"
#include "data/registry.hpp"
#include "gpusim/perfmodel.hpp"
#include "hostile_json.hpp"
#include "obs/analyze.hpp"
#include "obs/recorder.hpp"
#include "util/stats.hpp"

namespace multihit {
namespace {

using obs::JsonValue;
using obs::KernelProfile;
using obs::Profiler;

// ----------------------------------------------------------- profiler basics

KernelProfile sample_kernel(double global_bytes) {
  KernelProfile k;
  k.lambda_begin = 0;
  k.lambda_end = 1000;
  k.combinations = 1000;
  k.blocks = 2;
  k.reduce_stages = 1;
  k.word_ops = 24000;
  k.candidate_bytes = 40;
  k.global_bytes = global_bytes;
  k.dram_bytes = global_bytes / 3.0;
  k.occupancy = 0.5;
  k.resident_warps = 2560.0;
  k.mem_efficiency = 0.7;
  k.compute_seconds = 2e-8;
  k.memory_seconds = 3e-8;
  k.modeled_seconds = 5e-8;
  k.memory_bound = true;
  k.dram_throughput = 1e9;
  k.arithmetic_intensity = 24000.0 / k.dram_bytes;
  k.stall_memory_dependency = 0.6;
  k.stall_memory_throttle = 0.2;
  k.stall_execution_dependency = 0.1;
  k.stall_other = 0.1;
  return k;
}

TEST(Profile, DisabledProfilerRecordsNothing) {
  Profiler profiler;  // off by default, even when attached to a Recorder
  EXPECT_FALSE(profiler.enabled());
  profiler.record(sample_kernel(800.0));
  profiler.annotate_last(1.0, 2.0);
  profiler.mark_node_lost(0, 0);
  EXPECT_TRUE(profiler.empty());
}

TEST(Profile, RecordStampsContextAndAnnotateSetsPlacement) {
  Profiler profiler;
  profiler.enable();
  profiler.set_context({3, 19, 2, /*recovery=*/true});
  profiler.record(sample_kernel(800.0));
  ASSERT_EQ(profiler.size(), 1u);
  const KernelProfile& k = profiler.records().front();
  EXPECT_EQ(k.rank, 3u);
  EXPECT_EQ(k.gpu, 19u);
  EXPECT_EQ(k.iteration, 2u);
  EXPECT_TRUE(k.recovery);
  // Placement defaults to the un-jittered model until the driver annotates.
  EXPECT_DOUBLE_EQ(k.sim_seconds, k.modeled_seconds);

  profiler.annotate_last(7.5, 6e-8);
  EXPECT_DOUBLE_EQ(profiler.records().front().sim_begin, 7.5);
  EXPECT_DOUBLE_EQ(profiler.records().front().sim_seconds, 6e-8);
}

TEST(Profile, MarkNodeLostFlagsOnlyNonRecoveryRecordsOfThatIteration) {
  Profiler profiler;
  profiler.enable();
  profiler.set_context({1, 6, 0, false});
  profiler.record(sample_kernel(800.0));
  profiler.set_context({1, 6, 1, false});
  profiler.record(sample_kernel(800.0));
  profiler.set_context({2, 12, 1, false});
  profiler.record(sample_kernel(800.0));
  profiler.set_context({3, 18, 1, /*recovery=*/true});
  profiler.record(sample_kernel(800.0));

  profiler.mark_node_lost(1, 1);
  EXPECT_FALSE(profiler.records()[0].lost);  // other iteration
  EXPECT_TRUE(profiler.records()[1].lost);
  EXPECT_FALSE(profiler.records()[2].lost);  // other rank
  EXPECT_FALSE(profiler.records()[3].lost);  // recovery re-run survives
}

// ------------------------------------------------- artifact round trip & I/O

Dataset profile_dataset(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = seed;
  return generate_dataset(spec);
}

/// A faulty instrumented cluster run with the kernel profiler on: crash plus
/// checkpointed recovery so recovery/lost records appear in the profile.
ClusterRunResult faulty_profiled_run(obs::Recorder& rec, std::uint64_t seed) {
  const Dataset data = profile_dataset(seed);
  SummitConfig config;
  config.nodes = 5;
  DistributedOptions options;
  options.recorder = &rec;
  rec.profile.enable();
  options.faults.events.push_back({FaultKind::kRankCrash, 2, 1, 0.5, 1});
  options.checkpoint_every = 2;
  const ClusterRunner runner(config);
  return runner.run(data, options);
}

TEST(Profile, ReportRoundTripsByteIdentically) {
  obs::Recorder rec;
  faulty_profiled_run(rec, 901);
  ASSERT_FALSE(rec.profile.empty());

  const std::string dumped = obs::profile_report(rec.profile).dump();
  const Profiler reloaded = obs::profiler_from_json(JsonValue::parse(dumped));
  EXPECT_TRUE(reloaded.enabled());
  ASSERT_EQ(reloaded.size(), rec.profile.size());
  // Every derived section is recomputed from the kernel table, so the
  // re-rendered document and CSV views are byte-identical to the originals.
  EXPECT_EQ(obs::profile_report(reloaded).dump(), dumped);
  EXPECT_EQ(obs::roofline_csv(reloaded), obs::roofline_csv(rec.profile));
  EXPECT_EQ(obs::heatmap_csv(reloaded), obs::heatmap_csv(rec.profile));
  EXPECT_EQ(obs::profile_text(reloaded), obs::profile_text(rec.profile));
  EXPECT_EQ(obs::profile_text(reloaded, true), obs::profile_text(rec.profile, true));
}

TEST(Profile, RepeatedProfiledRunsAreByteIdentical) {
  obs::Recorder rec_a, rec_b;
  faulty_profiled_run(rec_a, 903);
  faulty_profiled_run(rec_b, 903);
  EXPECT_EQ(obs::profile_report(rec_a.profile).dump(),
            obs::profile_report(rec_b.profile).dump());
}

TEST(Profile, LoaderRejectsCorruptDocuments) {
  obs::Recorder rec;
  faulty_profiled_run(rec, 901);
  const std::string dumped = obs::profile_report(rec.profile).dump();

  const auto reject = [](const std::string& text) {
    EXPECT_THROW(obs::profiler_from_json(JsonValue::parse(text)), obs::ProfileError)
        << text.substr(0, 120);
  };
  reject("{}");
  reject("{\"schema\":\"multihit.metrics.v1\"}");
  // Right schema, missing device/kernels sections.
  reject("{\"schema\":\"multihit.profile.v1\"}");
  reject("{\"schema\":\"multihit.profile.v1\",\"device\":{},\"kernels\":5}");
  // A kernel row with a non-numeric counter.
  std::string tampered = dumped;
  const std::string needle = "\"occupancy\":";
  const std::size_t at = tampered.find(needle, tampered.find("\"kernels\""));
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, needle.size() + 1, needle + "\"x");
  tampered.insert(tampered.find(',', at), "\"");
  reject(tampered);

  // Hostile values: each is refused before any cast, naming its path.
  const auto reject_field = [&dumped](std::string_view key, std::string_view value,
                                      const char* path) {
    hostile::expect_rejected<obs::ProfileError>(
        obs::profiler_from_json, hostile::plant(dumped, key, value, "\"kernels\""), path);
  };
  reject_field("rank", "-1", "kernels[0].rank");
  reject_field("gpu", "0.5", "kernels[0].gpu");
  reject_field("iteration", "4294967297", "kernels[0].iteration");
  reject_field("lambda_end", "1e30", "kernels[0].lambda_end");
  reject_field("lost", "0", "kernels[0].lost");
  reject_field("occupancy", "\"x\"", "kernels[0].occupancy");
  hostile::expect_rejected<obs::ProfileError>(
      obs::profiler_from_json, hostile::drop(dumped, "occupancy", "\"kernels\""),
      "kernels[0].occupancy");
  hostile::expect_rejected<obs::ProfileError>(
      obs::profiler_from_json, hostile::plant(dumped, "sm_count", "4294967297"),
      "device.sm_count");
}

// --------------------------------------------------- acceptance: reconciliation

TEST(Profile, CrosscheckReconcilesFaultyRunInProcess) {
  // The PR's acceptance gate: per-rank DRAM-byte and kernel-count totals in
  // the profile reconcile exactly with the trace's gpu_kernel spans and the
  // metrics counters — through crash, recovery, and checkpoint paths.
  obs::Recorder rec;
  faulty_profiled_run(rec, 901);
  const JsonValue metrics = JsonValue::parse(rec.metrics.to_json());
  const std::vector<std::string> mismatches =
      obs::profile_crosscheck(rec.profile, &rec.trace, &metrics);
  EXPECT_TRUE(mismatches.empty()) << (mismatches.empty() ? "" : mismatches.front());
}

TEST(Profile, CrosscheckReconcilesThroughOfflineArtifacts) {
  // Same gate via the obstool path: every artifact serialized to its file
  // format and reconstructed before reconciling.
  obs::Recorder rec;
  faulty_profiled_run(rec, 901);
  const Profiler profiler =
      obs::profiler_from_json(JsonValue::parse(obs::profile_report(rec.profile).dump()));
  const obs::Tracer tracer =
      obs::tracer_from_chrome(JsonValue::parse(rec.trace.to_chrome_json()));
  const JsonValue metrics = JsonValue::parse(rec.metrics.to_json());
  const std::vector<std::string> mismatches =
      obs::profile_crosscheck(profiler, &tracer, &metrics);
  EXPECT_TRUE(mismatches.empty()) << (mismatches.empty() ? "" : mismatches.front());
}

TEST(Profile, CrosscheckDetectsTamperedTraffic) {
  obs::Recorder rec;
  faulty_profiled_run(rec, 901);
  const JsonValue metrics = JsonValue::parse(rec.metrics.to_json());

  // Rebuild the profile with one launch's traffic perturbed by a single
  // word: both the metrics counters and the trace spans must flag it.
  Profiler tampered;
  tampered.enable();
  tampered.set_device(rec.profile.device());
  for (std::size_t i = 0; i < rec.profile.records().size(); ++i) {
    KernelProfile k = rec.profile.records()[i];
    if (i == 0) k.global_bytes += 8.0;
    tampered.set_context({k.rank, k.gpu, k.iteration, k.recovery});
    tampered.record(k);
  }
  const std::vector<std::string> mismatches =
      obs::profile_crosscheck(tampered, &rec.trace, &metrics);
  EXPECT_FALSE(mismatches.empty());
}

TEST(Profile, CrosscheckDetectsMissingRecord) {
  obs::Recorder rec;
  faulty_profiled_run(rec, 901);
  Profiler truncated;
  truncated.enable();
  truncated.set_device(rec.profile.device());
  for (std::size_t i = 0; i + 1 < rec.profile.records().size(); ++i) {
    KernelProfile k = rec.profile.records()[i];
    truncated.set_context({k.rank, k.gpu, k.iteration, k.recovery});
    truncated.record(k);
  }
  const JsonValue metrics = JsonValue::parse(rec.metrics.to_json());
  EXPECT_FALSE(obs::profile_crosscheck(truncated, &rec.trace, &metrics).empty());
}

// ------------------------------------------------- differential: profiling off

TEST(ProfileDifferential, ProfilingIsBitIdenticalOff) {
  // Enabling the profiler must not change selections, modeled clocks, or the
  // other artifacts — the same invariant PR 2 established for the recorder
  // itself, extended to the profile seam.
  const Dataset data = profile_dataset(901);
  SummitConfig config;
  config.nodes = 5;
  const ClusterRunner runner(config);

  const auto run_with = [&](bool profiled, obs::Recorder& rec) {
    DistributedOptions options;
    options.recorder = &rec;
    rec.profile.enable(profiled);
    options.faults.events.push_back({FaultKind::kRankCrash, 2, 1, 0.5, 1});
    options.checkpoint_every = 2;
    return runner.run(data, options);
  };

  obs::Recorder plain, profiled;
  const ClusterRunResult a = run_with(false, plain);
  const ClusterRunResult b = run_with(true, profiled);

  EXPECT_TRUE(plain.profile.empty());
  EXPECT_FALSE(profiled.profile.empty());
  ASSERT_EQ(a.greedy.iterations.size(), b.greedy.iterations.size());
  for (std::size_t i = 0; i < a.greedy.iterations.size(); ++i) {
    EXPECT_EQ(a.greedy.iterations[i].genes, b.greedy.iterations[i].genes) << i;
  }
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_DOUBLE_EQ(a.recovery_time, b.recovery_time);
  // Byte-level: the trace and metrics exports are unchanged by profiling.
  EXPECT_EQ(plain.trace.to_chrome_json(), profiled.trace.to_chrome_json());
  EXPECT_EQ(plain.metrics.to_json(), profiled.metrics.to_json());
}

// ------------------------------------- figure crosschecks from saved artifacts

/// Runs the analytic cluster model with the profiler attached and returns the
/// reloaded profiler (forcing everything through the multihit.profile.v1
/// serialization, as `obstool profile` would see it).
Profiler modeled_profile(const SummitConfig& config, ModelInputs inputs,
                         ModeledRun* run_out = nullptr) {
  obs::Recorder rec;
  rec.profile.enable();
  inputs.recorder = &rec;
  ModeledRun run = model_cluster_run(config, inputs);
  if (run_out != nullptr) *run_out = std::move(run);
  return obs::profiler_from_json(JsonValue::parse(obs::profile_report(rec.profile).dump()));
}

TEST(ProfileFigures, Fig6ReproducesFromSavedProfile) {
  // Fig. 6 (2x2 on ACC, 100 nodes): occupancy, roofline boundness, and the
  // per-GPU stall taxonomy must be recoverable from the saved profile alone,
  // matching the bench's direct GpuTiming computation exactly (json_number
  // round-trips doubles losslessly).
  const auto acc = find_cancer_type("ACC");
  ASSERT_TRUE(acc.has_value());
  SummitConfig config;
  config.nodes = 100;
  ModelInputs inputs;
  inputs.genes = acc->paper_genes;
  inputs.tumor_samples = acc->paper_tumor_samples;
  inputs.normal_samples = acc->paper_normal_samples;
  inputs.inner = 2;
  inputs.first_iteration_only = true;

  ModeledRun run;
  const Profiler profiler = modeled_profile(config, inputs, &run);
  const auto& gpus = run.iterations.front().gpus;
  ASSERT_EQ(profiler.size(), gpus.size());  // 600 launches, one per GPU

  for (std::size_t g = 0; g < gpus.size(); g += 50) {
    const KernelProfile& k = profiler.records()[g];
    EXPECT_EQ(k.gpu, static_cast<std::uint32_t>(g));
    EXPECT_DOUBLE_EQ(k.occupancy, gpus[g].occupancy) << g;
    EXPECT_EQ(k.memory_bound, gpus[g].memory_bound) << g;
    EXPECT_DOUBLE_EQ(k.dram_throughput, gpus[g].dram_throughput) << g;
    EXPECT_DOUBLE_EQ(k.sim_seconds, gpus[g].time) << g;  // jittered placement
    const StallBreakdown s = stall_breakdown(gpus[g]);
    EXPECT_DOUBLE_EQ(k.stall_memory_dependency, s.memory_dependency) << g;
    EXPECT_DOUBLE_EQ(k.stall_memory_throttle, s.memory_throttle) << g;
    EXPECT_DOUBLE_EQ(k.stall_execution_dependency, s.execution_dependency) << g;
  }

  // The figure's headline shape from the artifact: GPU 0 is the starved,
  // memory-dependency-dominated straggler; throughput rises with GPU index.
  const KernelProfile& first = profiler.records().front();
  const KernelProfile& last = profiler.records().back();
  EXPECT_LT(first.occupancy, 0.3);
  EXPECT_GT(first.stall_memory_dependency, 0.6);
  EXPECT_GT(last.dram_throughput, 2.0 * first.dram_throughput);
}

TEST(ProfileFigures, Fig7ReproducesFromSavedProfile) {
  // Fig. 7 (3x1 on BRCA, 100 nodes): the utilization statistics the bench
  // prints are re-derivable from per-kernel sim_seconds in the artifact.
  SummitConfig config;
  config.nodes = 100;
  ModelInputs inputs;  // BRCA defaults, 3x1
  inputs.first_iteration_only = true;

  ModeledRun run;
  const Profiler profiler = modeled_profile(config, inputs, &run);
  const auto& gpus = run.iterations.front().gpus;
  ASSERT_EQ(profiler.size(), gpus.size());

  const auto util_stats = [](const std::vector<double>& times) {
    double max_time = 0.0;
    for (const double t : times) max_time = std::max(max_time, t);
    std::vector<double> util;
    util.reserve(times.size());
    for (const double t : times) util.push_back(100.0 * t / max_time);
    return std::array{stats::mean(util), stats::min(util), stats::stddev(util)};
  };
  std::vector<double> bench_times, profile_times;
  for (const auto& g : gpus) bench_times.push_back(g.time);
  for (const KernelProfile& k : profiler.records()) profile_times.push_back(k.sim_seconds);
  const auto bench = util_stats(bench_times);
  const auto from_profile = util_stats(profile_times);
  for (std::size_t i = 0; i < bench.size(); ++i) {
    EXPECT_NEAR(from_profile[i], bench[i], 1e-9) << i;
  }
  // The paper's balanced-3x1 claim, read off the artifact.
  EXPECT_GT(from_profile[1], 95.0);  // min utilization
  EXPECT_LT(from_profile[2], 1.5);   // stddev
}

TEST(ProfileFigures, Fig5SpeedupsTrackProfiledTrafficReduction) {
  // Fig. 5: the memory-bound stages' modeled speedups must agree with the
  // DRAM-traffic reductions counted in each stage's profile — the profiler
  // and the perf model describe the same roofline.
  struct Stage {
    MemOpts opts;
    bool splice;
  };
  const std::vector<Stage> stages{
      {MemOpts{}, false},
      {MemOpts{.prefetch_i = true}, false},
      {MemOpts{.prefetch_i = true, .prefetch_j = true}, false},
      {MemOpts{.prefetch_i = true, .prefetch_j = true}, true},
  };
  SummitConfig single;
  single.nodes = 1;
  single.gpus_per_node = 1;
  single.job_fixed_overhead = 0.0;
  single.job_log_overhead = 0.0;
  single.gpu_jitter = 0.0;

  std::vector<double> times, dram, local;
  for (const Stage& stage : stages) {
    ModelInputs inputs;
    inputs.hits = 3;
    inputs.mem_opts = stage.opts;
    inputs.bit_splicing = stage.splice;
    obs::Recorder rec;
    rec.profile.enable();
    inputs.recorder = &rec;
    times.push_back(model_single_gpu_time(DeviceSpec::v100(), inputs));
    const Profiler reloaded = obs::profiler_from_json(
        JsonValue::parse(obs::profile_report(rec.profile).dump()));
    double dram_total = 0.0, local_total = 0.0;
    for (const KernelProfile& k : reloaded.records()) {
      dram_total += k.dram_bytes;
      local_total += k.local_bytes;
    }
    dram.push_back(dram_total);
    local.push_back(local_total);
  }

  EXPECT_DOUBLE_EQ(local[0], 0.0);        // baseline: no prefetch traffic
  EXPECT_GT(local[1], 0.0);               // MemOpt1 serves bytes locally
  EXPECT_GT(local[2], local[1] * 0.99);   // MemOpt2 serves at least as many
  for (std::size_t s = 1; s < stages.size(); ++s) {
    const double speedup = times[0] / times[s];
    const double traffic_reduction = dram[0] / dram[s];
    EXPECT_GT(speedup, 1.0) << s;
    // Memory-bound stages: time ratio tracks DRAM-byte ratio to within 1%
    // (launch overheads and reduce costs are the only divergence).
    EXPECT_NEAR(speedup / traffic_reduction, 1.0, 0.01) << s;
  }
  // The paper's combined ~3x from the two prefetch optimizations.
  EXPECT_NEAR(times[0] / times[2], 3.0, 0.1);
}

// ----------------------------------------------------- heatmap: EA vs ED view

TEST(ProfileHeatmap, EquiAreaBalancesCombinationsWhereEquiDistanceDoesNot) {
  // The per-GPU heatmap makes the §IV-C scheduling story visible at counter
  // level: equi-distance slabs concentrate combinations on low GPU slots,
  // equi-area spreads them evenly.
  SummitConfig config;
  config.nodes = 4;  // 24 GPUs
  ModelInputs inputs;
  inputs.genes = 400;
  inputs.tumor_samples = 70;
  inputs.normal_samples = 50;
  inputs.first_iteration_only = true;

  const auto combination_spread = [&](SchedulerKind kind) {
    ModelInputs staged = inputs;
    staged.scheduler = kind;
    const Profiler profiler = modeled_profile(config, staged);
    std::vector<double> per_gpu(config.units(), 0.0);
    for (const KernelProfile& k : profiler.records()) {
      per_gpu[k.gpu] += static_cast<double>(k.combinations);
    }
    const auto [lo, hi] = std::minmax_element(per_gpu.begin(), per_gpu.end());
    return *hi / std::max(*lo, 1.0);
  };

  const double ed_spread = combination_spread(SchedulerKind::kEquiDistance);
  const double ea_spread = combination_spread(SchedulerKind::kEquiArea);
  EXPECT_LT(ea_spread, 1.2);           // near-uniform combinations per GPU
  EXPECT_GT(ed_spread, 5.0 * ea_spread);  // ED wildly imbalanced
}

}  // namespace
}  // namespace multihit
