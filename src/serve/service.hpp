#pragma once
// Deterministic multi-tenant job service on the simulated clock.
//
// The paper partitions ONE job's λ space across G GPUs with the equi-area
// scheduler. The service generalizes that to N concurrent jobs: on every
// iteration boundary ("round") it splits the G simulated GPUs across the
// running jobs proportionally to each job's modeled next-iteration work (the
// same equal-area principle, one level up), then splits each job's grant
// over its own λ space with the ordinary equi-area schedule. Every running
// job advances exactly one greedy iteration per round through its
// multihit::Engine session — the session API is what makes a job a
// resumable, preemptible object — and the round's simulated length is the
// slowest job's iteration (a BSP barrier; re-partitioning happens only at
// these boundaries, exactly like the paper's fault re-partitions).
//
// Admission control: a bounded backlog (queue_capacity), per-tenant quotas
// on in-flight jobs, and priorities (higher runs first; preemption at
// iteration boundaries only). Completed selections land in the per-cancer
// result cache; an identical later request is served from cache in
// kCacheHitSeconds without touching a GPU.
//
// Everything is deterministic: arrivals come from the seeded trace, compute
// times from the workload model, and ties break on (priority desc, arrival
// asc, id asc) — two replays of one trace record byte-identical traces and
// metrics, on any bitops backend, and every job's selections are
// bit-identical to a standalone single-job run (pinned in
// tests/test_serve.cpp and scripts/ci.sh).
//
// A served run writes no format of its own. With a recorder attached, each
// analyze request leaves one `job` instant (category `serve`) on its lane,
// kJobLaneBase + id, at its resolution time: string args id, tenant, cancer,
// hits, outcome, cache_hit, selections (combinations joined by ';', genes by
// ','), and arrival and finish as exact decimal seconds (finish -1 for a
// rejection). obs::slo_input_from_trace reads the SLO input back from them.
// The numbers the instants do not carry are serve.* metrics, among them the
// serve.makespan_seconds gauge and the serve.cache.* counters (this replay's
// CancerCache::Stats increments).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/slo.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"

namespace multihit::obs {
struct Recorder;
}  // namespace multihit::obs

namespace multihit::serve {

/// Modeled time to serve a result-cache hit (lookup + transfer).
inline constexpr double kCacheHitSeconds = 0.5;

/// Job record `id` traces on lane kJobLaneBase + id, above the scheduler
/// lane; rounds advance the simulated clock monotonically, so a job's
/// iteration spans and then its `job` instant append in non-decreasing start
/// order on its lane.
inline constexpr std::uint32_t kJobLaneBase = obs::kSchedulerLane + 1;

struct ServiceOptions {
  std::uint32_t gpus = 24;           ///< simulated fleet size G
  std::uint32_t max_concurrent = 8;  ///< jobs per round (also capped by G)
  /// Bound on admitted-but-unfinished jobs; arrivals beyond it are shed.
  std::uint32_t queue_capacity = 16;
  /// Max in-flight (admitted, unfinished) jobs per tenant.
  std::uint32_t tenant_quota = 6;
  bool result_cache = true;
  /// Optional observability: per-tenant labeled serve.* metrics, per-job
  /// trace lanes with their `job` instants, serve_round spans on the
  /// scheduler lane. Null changes nothing (the usual bit-identical-off
  /// contract).
  obs::Recorder* recorder = nullptr;
  /// SLO objectives (obs::parse_slo). The latency targets decide which
  /// completions count *bad* in the cumulative serve.slo_total / serve.slo_bad
  /// trace counters that drive the monitor's burn detectors; empty means only
  /// rejections are bad. Evaluation itself is obs::evaluate_slo — this list
  /// does not change scheduling.
  std::vector<obs::SloObjective> slo;
};

/// The N-over-G split: grants `gpus` across jobs proportionally to `work`
/// (modeled next-iteration work per running job), at least one GPU each,
/// remainder by largest fractional share with lowest-index tie-break.
/// Requires 1 <= work.size() <= gpus; all work values must be >= 0.
std::vector<std::uint32_t> partition_gpus_across_jobs(const std::vector<double>& work,
                                                      std::uint32_t gpus);

struct TenantStats {
  std::string tenant;
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double mean_latency = 0.0;
};

struct ServeResult {
  std::vector<JobRecord> jobs;  ///< every request, in admission order
  std::uint64_t rounds = 0;
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;
  std::uint32_t cache_hits = 0;
  double makespan = 0.0;  ///< last completion time (simulated s)
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double mean_latency = 0.0;
  double jobs_per_sec = 0.0;  ///< completed / makespan
  std::vector<TenantStats> tenants;  ///< sorted by tenant name
  CancerCache::Stats cache;
};

class JobService {
 public:
  explicit JobService(ServiceOptions options);

  /// Replays one trace to completion. The cache persists across replay()
  /// calls on the same service (a second replay of an identical trace is
  /// mostly cache hits — pinned in tests).
  ServeResult replay(const RequestTrace& trace);

  const ServiceOptions& options() const noexcept { return options_; }
  CancerCache& cache() noexcept { return cache_; }

 private:
  ServiceOptions options_;
  CancerCache cache_;
};

/// Rewrites `spec` and `options` so the scenario's failure class manifests
/// (kNone leaves both untouched). Shared by multihit-serve --scenario and
/// the detector-quality tests, so the planted ground truth is one
/// definition.
void apply_scenario(TraceSpec& spec, ServiceOptions& options, Scenario scenario);

}  // namespace multihit::serve
