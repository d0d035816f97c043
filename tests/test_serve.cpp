// Multi-tenant job service suite (src/serve).
//
// The load-bearing properties, in order of importance:
//   1. Determinism: replaying one seeded trace twice records byte-identical
//      traces and metrics.
//   2. Answer invariance: every completed job's selections are bit-identical
//      to a standalone single-job run — time-sharing the fleet, preemption,
//      caching, and invalidation must never change an answer.
//   3. Policy: admission control (queue bound, per-tenant quotas) and
//      priority scheduling actually bite.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/registry.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"

namespace multihit::serve {
namespace {

// --- the N-jobs-over-G-GPUs split -------------------------------------------

TEST(PartitionGpus, ProportionalWithFloorAndExactSum) {
  const std::vector<double> work{3.0, 1.0};
  const auto grants = partition_gpus_across_jobs(work, 8);
  // Floor of 1 each, spare 6 split 4.5/1.5 -> 4/1 by floor, the leftover GPU
  // to the larger fraction; .5/.5 ties break to the lower index.
  EXPECT_EQ(grants, (std::vector<std::uint32_t>{6, 2}));

  // Sum always equals the fleet, every job gets at least one GPU.
  const std::vector<double> skew{100.0, 1.0, 1.0, 0.0};
  const auto g2 = partition_gpus_across_jobs(skew, 24);
  EXPECT_EQ(std::accumulate(g2.begin(), g2.end(), 0u), 24u);
  for (const std::uint32_t g : g2) EXPECT_GE(g, 1u);
  EXPECT_GT(g2[0], g2[1]);
  EXPECT_EQ(g2[3], 1u) << "a zero-work job keeps only the liveness floor";
}

TEST(PartitionGpus, ZeroSignalSpreadsEvenly) {
  const auto grants = partition_gpus_across_jobs({0.0, 0.0, 0.0}, 8);
  EXPECT_EQ(grants, (std::vector<std::uint32_t>{3, 3, 2}));
}

TEST(PartitionGpus, RejectsImpossibleInputs) {
  EXPECT_THROW(partition_gpus_across_jobs({}, 4), std::invalid_argument);
  EXPECT_THROW(partition_gpus_across_jobs({1.0, 1.0, 1.0}, 2), std::invalid_argument);
  EXPECT_THROW(partition_gpus_across_jobs({-1.0}, 4), std::invalid_argument);
}

// --- trace generation --------------------------------------------------------

TEST(TraceGen, DeterministicPerSeedAcrossAllMixes) {
  for (const ArrivalMix mix :
       {ArrivalMix::kOpen, ArrivalMix::kClosed, ArrivalMix::kBursty, ArrivalMix::kDiurnal}) {
    TraceSpec spec;
    spec.mix = mix;
    spec.jobs = 20;
    spec.seed = 99;
    if (mix != ArrivalMix::kClosed) spec.invalidate_rate = 0.15;
    const RequestTrace a = generate_trace(spec);
    const RequestTrace b = generate_trace(spec);
    ASSERT_EQ(a.requests.size(), b.requests.size()) << mix_name(mix);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival) << mix_name(mix) << " " << i;
      EXPECT_EQ(a.requests[i].tenant, b.requests[i].tenant);
      EXPECT_EQ(a.requests[i].cancer, b.requests[i].cancer);
      EXPECT_EQ(a.requests[i].kind, b.requests[i].kind);
    }
    // Tenants and cancer codes came from the defaults.
    EXPECT_EQ(a.spec.tenants.size(), 3u);
    EXPECT_EQ(a.spec.cancers.size(), cancer_registry().size());
  }
}

TEST(TraceGen, ValidatesSpecs) {
  TraceSpec zero_jobs;
  zero_jobs.jobs = 0;
  EXPECT_THROW(generate_trace(zero_jobs), std::invalid_argument);

  TraceSpec bad_rate;
  bad_rate.mean_interarrival = 0.0;
  EXPECT_THROW(generate_trace(bad_rate), std::invalid_argument);

  TraceSpec no_clients;
  no_clients.mix = ArrivalMix::kClosed;
  no_clients.clients = 0;
  EXPECT_THROW(generate_trace(no_clients), std::invalid_argument);

  TraceSpec bad_amplitude;
  bad_amplitude.diurnal_amplitude = 1.0;
  EXPECT_THROW(generate_trace(bad_amplitude), std::invalid_argument);

  TraceSpec no_burst;
  no_burst.mix = ArrivalMix::kBursty;
  no_burst.burst_size = 0;
  EXPECT_THROW(generate_trace(no_burst), std::invalid_argument);

  // invalidate_rate x jobs must fit the u32 invalidation count.
  TraceSpec flood;
  flood.invalidate_rate = 1e300;
  EXPECT_THROW(generate_trace(flood), std::invalid_argument);
}

// --- cancer cache ------------------------------------------------------------

TEST(CancerCache, InvalidationDropsResultsAndRebuildsIdenticalMatrices) {
  CancerCache cache;
  const Dataset& first = cache.dataset("BRCA");
  const BitMatrix tumor_before = first.tumor;
  cache.store_result("BRCA", 4, {{1, 2, 3, 4}});
  ASSERT_NE(cache.find_result("BRCA", 4), nullptr);
  EXPECT_EQ(cache.generation("BRCA"), 0u);

  cache.invalidate("BRCA");
  EXPECT_EQ(cache.generation("BRCA"), 1u);
  EXPECT_EQ(cache.find_result("BRCA", 4), nullptr) << "results die with their generation";
  // The generator is deterministic per spec: the rebuilt matrices are
  // bit-identical — which is exactly why invalidations cannot change answers.
  EXPECT_EQ(cache.dataset("BRCA").tumor, tumor_before);

  EXPECT_EQ(cache.stats().dataset_builds, 2u);
  EXPECT_EQ(cache.stats().dataset_rebuilds, 1u) << "only the forced rebuild counts";
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_THROW(cache.dataset("NOPE"), std::invalid_argument);
}

// --- service replay ----------------------------------------------------------

ServiceOptions quick_options() {
  ServiceOptions options;
  options.gpus = 12;
  options.max_concurrent = 4;
  return options;
}

TEST(JobService, ReplayIsDeterministicByteForByte) {
  TraceSpec spec;
  spec.mix = ArrivalMix::kBursty;
  spec.jobs = 20;
  spec.seed = 3;
  spec.invalidate_rate = 0.2;
  const RequestTrace trace = generate_trace(spec);

  const auto recorded = [&trace] {
    ServiceOptions options = quick_options();
    obs::Recorder rec;
    options.recorder = &rec;
    JobService service(options);
    service.replay(trace);
    return std::make_pair(rec.trace.to_chrome_json(), rec.metrics.to_json());
  };
  const auto a = recorded();
  const auto b = recorded();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(JobService, EveryServedSelectionMatchesAStandaloneRun) {
  TraceSpec spec;
  spec.mix = ArrivalMix::kOpen;
  spec.jobs = 20;
  spec.seed = 5;
  spec.invalidate_rate = 0.2;  // answers must survive cache invalidation too
  const RequestTrace trace = generate_trace(spec);

  JobService service(quick_options());
  const ServeResult result = service.replay(trace);
  ASSERT_GE(result.completed, 20u * 9 / 10);

  std::uint32_t checked = 0;
  for (const JobRecord& job : result.jobs) {
    if (job.outcome != JobOutcome::kCompleted) continue;
    const auto type = find_cancer_type(job.cancer);
    ASSERT_TRUE(type.has_value());
    const Dataset data = generate_dataset(CancerCache::serve_spec(*type));
    EngineConfig config;
    config.hits = job.hits;
    const GreedyResult standalone =
        run_greedy(data.tumor, data.normal, config, make_kernel_evaluator(job.hits));
    EXPECT_EQ(job.selections, standalone.combinations())
        << "job " << job.id << " (" << job.cancer << ", " << job.hits << "-hit)";
    ++checked;
  }
  EXPECT_EQ(checked, result.completed);
}

TEST(JobService, SecondReplayIsServedFromTheResultCache) {
  TraceSpec spec;
  spec.jobs = 12;
  spec.seed = 17;
  const RequestTrace trace = generate_trace(spec);

  JobService service(quick_options());
  const ServeResult cold = service.replay(trace);
  const ServeResult warm = service.replay(trace);
  EXPECT_EQ(warm.completed, cold.completed);
  EXPECT_EQ(warm.cache_hits, warm.completed) << "every warm job is a result-cache hit";
  EXPECT_EQ(warm.rounds, 0u) << "no GPU round runs when every answer is cached";
  for (std::size_t i = 0; i < warm.jobs.size(); ++i) {
    EXPECT_EQ(warm.jobs[i].selections, cold.jobs[i].selections);
  }
}

TEST(JobService, QueueBoundAndQuotaRejectDeterministically) {
  // A thundering herd into a tiny queue: admissions stop at capacity.
  TraceSpec spec;
  spec.mix = ArrivalMix::kBursty;
  spec.jobs = 12;
  spec.burst_size = 12;  // all twelve arrive at t = 0
  spec.seed = 23;
  spec.tenants = {{"solo", 0, 1.0}};
  // Twelve distinct codes so no request is absorbed by the result cache.
  for (const CancerType& type : cancer_registry()) spec.cancers.push_back(type.code);
  const RequestTrace trace = generate_trace(spec);

  ServiceOptions tight = quick_options();
  tight.queue_capacity = 3;
  tight.tenant_quota = 8;
  JobService queue_bound(tight);
  const ServeResult queued = queue_bound.replay(trace);
  std::uint32_t queue_rejects = 0;
  for (const JobRecord& job : queued.jobs) {
    if (job.outcome == JobOutcome::kRejectedQueueFull) ++queue_rejects;
  }
  EXPECT_EQ(queue_rejects, 9u) << "capacity 3 admits exactly 3 of the herd";

  ServiceOptions quota = quick_options();
  quota.queue_capacity = 16;
  quota.tenant_quota = 2;
  JobService quota_bound(quota);
  const ServeResult quotad = quota_bound.replay(trace);
  std::uint32_t quota_rejects = 0;
  for (const JobRecord& job : quotad.jobs) {
    if (job.outcome == JobOutcome::kRejectedQuota) ++quota_rejects;
  }
  EXPECT_EQ(quota_rejects, 10u) << "quota 2 caps the single tenant's in-flight jobs";
}

TEST(JobService, PriorityPreemptsAtIterationBoundaries) {
  // Four bronze jobs saturate a two-slot service; a gold job arriving
  // mid-flight must enter the running set at the next round boundary, ahead
  // of every queued bronze job.
  RequestTrace trace;
  trace.spec.mix = ArrivalMix::kBursty;
  trace.spec.jobs = 5;
  const std::vector<std::string> codes{"BRCA", "ACC", "ESCA", "LUAD"};
  for (std::size_t i = 0; i < 4; ++i) {
    Request r;
    r.arrival = 0.0;
    r.tenant = "bronze";
    r.priority = 0;
    r.cancer = codes[i];
    trace.requests.push_back(r);
  }
  Request gold;
  gold.arrival = 0.5;  // lands inside round 0
  gold.tenant = "gold";
  gold.priority = 2;
  gold.cancer = "LUSC";
  trace.requests.push_back(gold);

  ServiceOptions options;
  options.gpus = 4;
  options.max_concurrent = 2;
  JobService service(options);
  const ServeResult result = service.replay(trace);
  ASSERT_EQ(result.completed, 5u);

  const JobRecord& gold_job = result.jobs[4];
  EXPECT_EQ(gold_job.tenant, "gold");
  // Bronze jobs 2 and 3 were still queued when gold arrived; gold runs first.
  EXPECT_LT(gold_job.start, result.jobs[2].start);
  EXPECT_LT(gold_job.start, result.jobs[3].start);
  EXPECT_GT(gold_job.start, 0.0) << "gold still waits for the round boundary";
}

TEST(JobService, ClosedLoopClientsNeverOverlapThemselves) {
  TraceSpec spec;
  spec.mix = ArrivalMix::kClosed;
  spec.jobs = 16;
  spec.clients = 4;
  spec.seed = 29;
  const RequestTrace trace = generate_trace(spec);

  JobService service(quick_options());
  const ServeResult result = service.replay(trace);
  EXPECT_EQ(result.completed + result.rejected, 16u);

  // Per client, request k+1 arrives exactly think_time after request k
  // resolved — the closed-loop contract.
  std::vector<const JobRecord*> last(spec.clients, nullptr);
  for (const JobRecord& job : result.jobs) {
    if (const JobRecord* prev = last[job.client]; prev != nullptr) {
      const double resolved =
          prev->outcome == JobOutcome::kCompleted ? prev->finish : prev->arrival;
      EXPECT_NEAR(job.arrival, resolved + spec.think_time, 1e-9)
          << "client " << job.client << " job " << job.id;
    }
    last[job.client] = &job;
  }
}

/// The serve.cache.* counters against a service's lifetime cache stats.
void expect_cache_counters(obs::MetricsRegistry& metrics, const CancerCache::Stats& stats) {
  const auto value = [&](const char* field) {
    return metrics.counter(std::string("serve.cache.") + field).value();
  };
  EXPECT_EQ(value("dataset_builds"), static_cast<double>(stats.dataset_builds));
  EXPECT_EQ(value("dataset_rebuilds"), static_cast<double>(stats.dataset_rebuilds));
  EXPECT_EQ(value("dataset_hits"), static_cast<double>(stats.dataset_hits));
  EXPECT_EQ(value("result_hits"), static_cast<double>(stats.result_hits));
  EXPECT_EQ(value("result_misses"), static_cast<double>(stats.result_misses));
  EXPECT_EQ(value("invalidations"), static_cast<double>(stats.invalidations));
}

TEST(JobService, MetricsCarryTheMakespanCacheStatsAndPerTenantCounts) {
  TraceSpec spec;
  spec.jobs = 10;
  spec.seed = 31;
  spec.mean_interarrival = 0.5;  // a flood the 3-deep queue sheds
  spec.invalidate_rate = 0.3;
  const RequestTrace trace = generate_trace(spec);
  ServiceOptions options = quick_options();
  options.queue_capacity = 3;
  obs::Recorder rec;
  options.recorder = &rec;
  JobService service(options);
  const ServeResult result = service.replay(trace);
  ASSERT_GT(result.rejected, 0u);
  ASSERT_GT(result.cache.invalidations, 0u);

  EXPECT_EQ(rec.metrics.gauge("serve.makespan_seconds").value(), result.makespan);
  expect_cache_counters(rec.metrics, result.cache);
  for (const TenantStats& tenant : result.tenants) {
    const obs::Labels labels{{"tenant", tenant.tenant}};
    EXPECT_EQ(rec.metrics.counter("serve.jobs_completed", labels).value() +
                  rec.metrics.counter("serve.cache_served", labels).value(),
              static_cast<double>(tenant.completed))
        << tenant.tenant;
    double rejected = 0.0;
    for (const char* reason : {"queue_full", "quota"}) {
      rejected += rec.metrics
                      .counter("serve.jobs_rejected", {{"tenant", tenant.tenant}, {"reason", reason}})
                      .value();
    }
    EXPECT_EQ(rejected, static_cast<double>(tenant.rejected)) << tenant.tenant;
  }
  // Percentiles are ordered and makespan bounds every latency.
  EXPECT_LE(result.p50_latency, result.p99_latency);
  EXPECT_LE(result.p99_latency, result.makespan);

  // A second replay into the same registry adds only its own cache
  // increments: the counters then equal the service's lifetime stats.
  const ServeResult second = service.replay(trace);
  EXPECT_EQ(rec.metrics.gauge("serve.makespan_seconds").value(), second.makespan);
  expect_cache_counters(rec.metrics, second.cache);
}

/// A job instant's string args by key.
std::map<std::string, std::string> args_of(const obs::TraceEvent& ev) {
  return {ev.args.begin(), ev.args.end()};
}

TEST(JobService, JobInstantsCarryEachRecordsSelectionsOutcomeAndTimes) {
  TraceSpec spec;
  spec.mix = ArrivalMix::kBursty;
  spec.jobs = 20;
  spec.seed = 3;
  spec.invalidate_rate = 0.2;
  const RequestTrace trace = generate_trace(spec);
  ServiceOptions options = quick_options();
  options.queue_capacity = 4;
  obs::Recorder rec;
  options.recorder = &rec;
  JobService service(options);
  const ServeResult result = service.replay(trace);
  ASSERT_GT(result.rejected, 0u);
  ASSERT_GT(result.cache_hits, 0u);
  ASSERT_GT(result.completed, result.cache_hits);

  std::vector<bool> seen(result.jobs.size(), false);
  for (const obs::TraceEvent& ev : rec.trace.events()) {
    if (ev.name != "job") continue;
    const std::map<std::string, std::string> args = args_of(ev);
    const JobRecord& job = result.jobs.at(std::stoul(args.at("id")));
    EXPECT_FALSE(seen[job.id]) << "one instant per job, job " << job.id;
    seen[job.id] = true;
    EXPECT_TRUE(ev.instant);
    EXPECT_EQ(ev.category, "serve");
    EXPECT_EQ(ev.lane, kJobLaneBase + job.id);
    // Resolution time: the round end for a computed job, arrival otherwise.
    const bool computed = job.outcome == JobOutcome::kCompleted && !job.cache_hit;
    EXPECT_EQ(ev.begin, computed ? job.finish : job.arrival) << job.id;

    std::string selections;
    for (const auto& combo : job.selections) {
      if (!selections.empty()) selections += ';';
      for (std::size_t g = 0; g < combo.size(); ++g) {
        if (g > 0) selections += ',';
        selections += std::to_string(combo[g]);
      }
    }
    EXPECT_EQ(args.at("selections"), selections) << job.id;
    EXPECT_EQ(args.at("outcome"), outcome_name(job.outcome)) << job.id;
    EXPECT_EQ(args.at("cache_hit"), job.cache_hit ? "true" : "false") << job.id;
    EXPECT_EQ(args.at("tenant"), job.tenant);
    EXPECT_EQ(args.at("cancer"), job.cancer);
    EXPECT_EQ(args.at("hits"), std::to_string(job.hits));
    // The times read back bit for bit.
    EXPECT_EQ(std::stod(args.at("arrival")), job.arrival) << job.id;
    EXPECT_EQ(std::stod(args.at("finish")), job.finish) << job.id;
    EXPECT_EQ(args.size(), 9u);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0) << "every request has its instant";
  EXPECT_TRUE(rec.trace.per_lane_monotone()) << "each instant follows its lane's spans";
}

// --- serve telemetry ---------------------------------------------------------

TEST(JobService, LatencyHistogramsSplitBySourceAndCacheHitsCostCacheHitSeconds) {
  TraceSpec spec;
  spec.jobs = 12;
  spec.seed = 5;
  const RequestTrace trace = generate_trace(spec);
  ServiceOptions options = quick_options();
  obs::Recorder rec;
  options.recorder = &rec;
  JobService service(options);
  const ServeResult first = service.replay(trace);
  const ServeResult second = service.replay(trace);  // mostly result-cache hits
  ASSERT_GT(second.cache_hits, 0u);

  std::uint64_t cache_samples = 0;
  std::uint64_t computed_samples = 0;
  for (const TenantSpec& tenant : trace.spec.tenants) {
    const obs::Histogram& cache = rec.metrics.histogram(
        "serve.job_latency", {{"source", "cache"}, {"tenant", tenant.name}});
    // A cache hit costs the modeled lookup+transfer time (to simulated-clock
    // rounding) — the regression this pins is cache hits billed a compute.
    for (const double v : cache.samples()) {
      EXPECT_NEAR(v, kCacheHitSeconds, 1e-6);
    }
    cache_samples += cache.count();
    computed_samples += rec.metrics
                            .histogram("serve.job_latency",
                                       {{"source", "computed"}, {"tenant", tenant.name}})
                            .count();
  }
  EXPECT_EQ(cache_samples, first.cache_hits + second.cache_hits);
  EXPECT_EQ(computed_samples, (first.completed - first.cache_hits) +
                                  (second.completed - second.cache_hits));
}

TEST(JobService, QueueDepthIsSampledAtEveryRoundBoundary) {
  TraceSpec spec;
  spec.mix = ArrivalMix::kBursty;
  spec.jobs = 12;
  spec.seed = 9;
  spec.burst_size = 4;
  spec.burst_every = 120.0;  // long idle gaps between bursts
  const RequestTrace trace = generate_trace(spec);
  ServiceOptions options = quick_options();
  obs::Recorder rec;
  options.recorder = &rec;
  JobService service(options);
  const ServeResult result = service.replay(trace);

  std::vector<const obs::CounterSample*> depth;
  for (const obs::CounterSample& c : rec.trace.counters()) {
    if (c.name == "serve.queue_depth") depth.push_back(&c);
  }
  // One sample at t=0, one per service round (idle boundaries included), and
  // one per admission — never fewer than rounds+1.
  ASSERT_GE(depth.size(), result.rounds + 1);
  EXPECT_DOUBLE_EQ(depth.front()->at, 0.0);
  EXPECT_DOUBLE_EQ(depth.back()->value, 0.0) << "the backlog drains by the end";
  // The idle gaps between bursts still get boundary samples reading zero.
  const bool idle_zero = std::any_of(depth.begin(), depth.end(), [&](const auto* c) {
    return c->value == 0.0 && c->at > 0.0 && c->at < result.makespan;
  });
  EXPECT_TRUE(idle_zero);
  for (std::size_t i = 1; i < depth.size(); ++i) {
    EXPECT_LE(depth[i - 1]->at, depth[i]->at) << "samples arrive in time order";
  }
}

TEST(JobService, SloCountersAgreeWithTheEvaluatedReport) {
  TraceSpec spec;
  spec.mix = ArrivalMix::kBursty;
  spec.jobs = 14;
  spec.seed = 21;
  spec.burst_size = 7;  // each burst overwhelms the 4-deep queue
  spec.burst_every = 1000.0;
  const RequestTrace trace = generate_trace(spec);
  ServiceOptions options = quick_options();
  options.queue_capacity = 4;
  options.max_concurrent = 2;
  options.slo = obs::parse_slo("slo * latency p99 below 0.001\n");  // everything is bad
  obs::Recorder rec;
  options.recorder = &rec;
  JobService service(options);
  const ServeResult result = service.replay(trace);
  const obs::SloReport report =
      obs::evaluate_slo(obs::slo_input_from_trace(rec.trace), options.slo);

  // Final cumulative serve.slo_total / serve.slo_bad per tenant must equal
  // the offline evaluator's event and bad counts — the burn detectors read
  // these counters, so drift here desynchronizes alerts from verdicts.
  std::map<std::string, double> last;
  for (const obs::CounterSample& c : rec.trace.counters()) last[c.name] = c.value;
  for (const obs::SloTenantReport& tenant : report.tenants) {
    const double total = last[obs::series_with_labels("serve.slo_total",
                                                      {{"tenant", tenant.tenant}})];
    const double bad =
        last[obs::series_with_labels("serve.slo_bad", {{"tenant", tenant.tenant}})];
    EXPECT_DOUBLE_EQ(total, static_cast<double>(tenant.completed + tenant.rejected))
        << tenant.tenant;
    EXPECT_DOUBLE_EQ(bad, static_cast<double>(tenant.bad)) << tenant.tenant;
  }
  EXPECT_GT(result.rejected, 0u) << "the tight queue actually shed load";
}

}  // namespace
}  // namespace multihit::serve
