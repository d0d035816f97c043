#include "serve/service.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bitmat/bitmatrix.hpp"
#include "core/session.hpp"
#include "data/registry.hpp"
#include "obs/recorder.hpp"
#include "obs/schema.hpp"
#include "sched/schedule.hpp"
#include "sched/workload.hpp"

namespace multihit::serve {

namespace {

/// One lane per job record, above the scheduler lane; rounds advance the
/// simulated clock monotonically, so per-job iteration spans append in
/// non-decreasing start order on each lane.
constexpr std::uint32_t kJobLaneBase = obs::kSchedulerLane + 1;

std::uint32_t ceil_log2(std::uint32_t n) noexcept {
  std::uint32_t levels = 0;
  for (std::uint32_t span = 1; span < n; span <<= 1) ++levels;
  return levels;
}

/// The scheme make_kernel_evaluator runs, so the time model prices the
/// kernel that actually executes.
WorkloadModel model_for_hits(std::uint32_t hits, std::uint32_t genes) {
  return WorkloadModel::for_scheme(Scheme{hits, hits - 1}, genes);
}

/// One admitted, unfinished job: its Engine session plus the workload model
/// the scheduler prices it with.
struct ActiveJob {
  std::uint32_t record = 0;  ///< index into ServeResult::jobs
  std::unique_ptr<Engine> engine;
  WorkloadModel model;
  std::uint32_t normal_words = 0;
  std::string tenant;
  std::uint32_t priority = 0;
  double arrival = 0.0;
};

}  // namespace

std::vector<std::uint32_t> partition_gpus_across_jobs(const std::vector<double>& work,
                                                      std::uint32_t gpus) {
  const std::size_t n = work.size();
  if (n == 0) throw std::invalid_argument("serve: partition needs at least one job");
  if (n > gpus) throw std::invalid_argument("serve: more running jobs than GPUs");
  double total = 0.0;
  for (const double w : work) {
    if (!(w >= 0.0)) throw std::invalid_argument("serve: job work must be >= 0");
    total += w;
  }

  std::vector<std::uint32_t> grant(n, 1);  // liveness floor: every job runs
  const std::uint32_t spare = gpus - static_cast<std::uint32_t>(n);
  if (spare == 0) return grant;

  if (total <= 0.0) {
    // No work signal (all-zero): spread evenly, low indices take the rest.
    for (std::size_t i = 0; i < n; ++i) grant[i] += spare / static_cast<std::uint32_t>(n);
    for (std::size_t i = 0; i < spare % n; ++i) ++grant[i];
    return grant;
  }

  // Largest-remainder proportional split of the spare GPUs.
  std::vector<double> frac(n);
  std::uint32_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ideal = static_cast<double>(spare) * work[i] / total;
    const auto base = static_cast<std::uint32_t>(ideal);
    grant[i] += base;
    assigned += base;
    frac[i] = ideal - static_cast<double>(base);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return frac[a] > frac[b]; });
  for (std::uint32_t k = 0; k < spare - assigned; ++k) ++grant[order[k]];
  return grant;
}

JobService::JobService(ServiceOptions options) : options_(std::move(options)) {
  if (options_.gpus == 0) throw std::invalid_argument("serve: gpus must be > 0");
  if (options_.max_concurrent == 0) {
    throw std::invalid_argument("serve: max_concurrent must be > 0");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("serve: queue_capacity must be > 0");
  }
  if (options_.work_units_per_gpu_second <= 0.0) {
    throw std::invalid_argument("serve: work_units_per_gpu_second must be > 0");
  }
}

ServeResult JobService::replay(const RequestTrace& trace) {
  const ServiceOptions& opt = options_;
  obs::Recorder* rec = opt.recorder;
  if (rec) rec->trace.set_lane_name(obs::kSchedulerLane, "serve scheduler");

  ServeResult result;
  std::vector<ActiveJob> active;
  std::uint64_t rounds = 0;
  double now = 0.0;

  // Requests whose absolute arrival time is known, keyed (arrival, request
  // index) so simultaneous arrivals process in trace order. Open mixes start
  // fully released; a closed-loop client's next request materializes when
  // its previous one completes or is rejected.
  using Released = std::pair<double, std::uint32_t>;
  std::priority_queue<Released, std::vector<Released>, std::greater<Released>> released;
  const bool closed = trace.spec.mix == ArrivalMix::kClosed;
  std::vector<std::vector<std::uint32_t>> client_program;
  std::vector<std::size_t> client_next;
  if (closed) {
    client_program.resize(trace.spec.clients);
    for (std::uint32_t i = 0; i < trace.requests.size(); ++i) {
      client_program[trace.requests[i].client].push_back(i);
    }
    client_next.assign(trace.spec.clients, 0);
    for (std::uint32_t c = 0; c < trace.spec.clients; ++c) {
      if (client_program[c].empty()) continue;
      released.emplace(trace.requests[client_program[c][0]].arrival, client_program[c][0]);
      client_next[c] = 1;
    }
  } else {
    for (std::uint32_t i = 0; i < trace.requests.size(); ++i) {
      released.emplace(trace.requests[i].arrival, i);
    }
  }

  const auto release_next = [&](std::uint32_t client, double at) {
    if (!closed) return;
    const auto& program = client_program[client];
    if (client_next[client] >= program.size()) return;
    const std::uint32_t idx = program[client_next[client]++];
    // The generated request carries think time, not an absolute arrival.
    released.emplace(at + trace.requests[idx].arrival, idx);
  };

  const auto tenant_inflight = [&](const std::string& tenant) {
    return static_cast<std::uint32_t>(std::count_if(
        active.begin(), active.end(), [&](const ActiveJob& a) { return a.tenant == tenant; }));
  };

  // Whether a completion burns error budget: slower than the tenant's
  // tightest declared latency target (infinity when no SLO is configured, so
  // only rejections count).
  const auto is_bad_completion = [&](const JobRecord& job) {
    return job.latency() > obs::latency_target(opt.slo, job.tenant);
  };

  // Cumulative per-tenant SLO counters on the scheduler lane, emitted at
  // decision time — arrival for cache hits and rejections, round end for
  // computed completions — so each series is non-decreasing in emission time
  // and windowed deltas over it are well-defined.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> slo_counts;
  const auto slo_event = [&](const std::string& tenant, bool bad, double t) {
    if (!rec) return;
    auto& counts = slo_counts[tenant];
    ++counts.first;
    if (bad) ++counts.second;
    const obs::SeriesLabels labels{{"tenant", tenant}};
    rec->trace.counter(obs::kSchedulerLane, obs::series_with_labels("serve.slo_total", labels),
                       t, static_cast<double>(counts.first));
    rec->trace.counter(obs::kSchedulerLane, obs::series_with_labels("serve.slo_bad", labels),
                       t, static_cast<double>(counts.second));
  };

  // Boundary telemetry on the scheduler lane, sampled at every service round
  // boundary including rounds where nothing ran — absence and threshold
  // rules over these series need them defined through idle gaps. Wait age is
  // the oldest admitted-but-never-scheduled job per tenant (0 when none):
  // the starvation detector's fleet-relative input.
  std::vector<std::string> tenant_names;
  for (const TenantSpec& tenant : trace.spec.tenants) tenant_names.push_back(tenant.name);
  std::sort(tenant_names.begin(), tenant_names.end());
  const auto sample_lanes = [&](double t) {
    if (!rec) return;
    rec->trace.counter(obs::kSchedulerLane, "serve.queue_depth", t,
                       static_cast<double>(active.size()));
    for (const std::string& tenant : tenant_names) {
      double age = 0.0;
      for (const ActiveJob& a : active) {
        if (a.tenant != tenant || result.jobs[a.record].start >= 0.0) continue;
        age = std::max(age, t - a.arrival);
      }
      rec->trace.counter(obs::kSchedulerLane,
                         obs::series_with_labels("serve.wait_age", {{"tenant", tenant}}), t,
                         age);
    }
    rec->trace.counter(obs::kSchedulerLane, "serve.cache_rebuilds", t,
                       static_cast<double>(cache_.stats().dataset_rebuilds));
  };
  if (rec) {
    // Declared once at t=0; the queue_saturation detector reads depth
    // against it.
    rec->trace.counter(obs::kSchedulerLane, "serve.queue_capacity", 0.0,
                       static_cast<double>(opt.queue_capacity));
  }
  sample_lanes(0.0);

  const auto handle_arrival = [&](std::uint32_t index, double t) {
    const Request& req = trace.requests[index];
    if (req.kind == RequestKind::kInvalidate) {
      cache_.invalidate(req.cancer);
      if (rec) {
        rec->metrics.counter("serve.invalidations", {{"cancer", req.cancer}}).add();
        rec->trace.instant(obs::kSchedulerLane, "invalidate", "serve", t,
                           {{"cancer", req.cancer}});
      }
      return;
    }

    const auto type = find_cancer_type(req.cancer);
    if (!type) {
      throw std::invalid_argument("serve: unknown cancer type '" + req.cancer + "'");
    }
    JobRecord job;
    job.id = static_cast<std::uint32_t>(result.jobs.size());
    job.client = req.client;
    job.tenant = req.tenant;
    job.cancer = req.cancer;
    // Hit count defaults to the registry estimate, clamped to [2, 5]: the
    // serve datasets are sized so that C(G, 5) is the most one iteration of
    // a served job may enumerate.
    job.hits = std::clamp(req.hits != 0 ? req.hits : CancerCache::serve_spec(*type).hits,
                          2u, 5u);
    job.priority = req.priority;
    job.arrival = t;

    if (opt.result_cache) {
      if (const auto* cached = cache_.find_result(req.cancer, job.hits)) {
        // Served straight from the result cache: no GPU time, no queue slot.
        job.cache_hit = true;
        job.start = t;
        job.finish = t + opt.cache_hit_seconds;
        job.selections = *cached;
        if (rec) {
          rec->metrics.counter("serve.cache_served", {{"tenant", job.tenant}}).add();
          rec->metrics
              .histogram("serve.job_latency", {{"source", "cache"}, {"tenant", job.tenant}})
              .observe(job.latency());
        }
        slo_event(job.tenant, is_bad_completion(job), t);
        release_next(req.client, job.finish);
        result.jobs.push_back(std::move(job));
        return;
      }
    }

    const char* reject = nullptr;
    if (active.size() >= opt.queue_capacity) {
      job.outcome = JobOutcome::kRejectedQueueFull;
      reject = "queue_full";
    } else if (tenant_inflight(req.tenant) >= opt.tenant_quota) {
      job.outcome = JobOutcome::kRejectedQuota;
      reject = "quota";
    }
    if (reject) {
      if (rec) {
        rec->metrics
            .counter("serve.jobs_rejected", {{"tenant", job.tenant}, {"reason", reject}})
            .add();
        rec->trace.instant(obs::kSchedulerLane, "reject", "serve", t,
                           {{"tenant", job.tenant}, {"reason", reject}});
      }
      slo_event(job.tenant, true, t);
      release_next(req.client, t);
      result.jobs.push_back(std::move(job));
      return;
    }

    const Dataset& data = cache_.dataset(req.cancer);
    EngineConfig config;
    config.hits = job.hits;
    ActiveJob a;
    a.record = job.id;
    a.engine = std::make_unique<Engine>(data.tumor, data.normal, std::move(config),
                                        make_kernel_evaluator(job.hits));
    a.model = model_for_hits(job.hits, data.genes());
    a.normal_words = words_for(data.normal_samples());
    a.tenant = req.tenant;
    a.priority = req.priority;
    a.arrival = t;
    active.push_back(std::move(a));
    if (rec) {
      rec->metrics.counter("serve.jobs_admitted", {{"tenant", job.tenant}}).add();
      rec->metrics.gauge("serve.queue_depth").set(static_cast<double>(active.size()));
      rec->trace.counter(obs::kSchedulerLane, "serve.queue_depth", t,
                         static_cast<double>(active.size()));
      rec->trace.set_lane_name(kJobLaneBase + job.id, "job " + std::to_string(job.id) + " " +
                                                          job.tenant + "/" + job.cancer);
    }
    result.jobs.push_back(std::move(job));
  };

  // One BSP service round: pick the running set, split the fleet across it,
  // advance every running job exactly one greedy iteration, advance the
  // clock by the slowest job's modeled iteration.
  const auto run_round = [&]() {
    ++rounds;
    const double round_begin = now;

    std::vector<std::uint32_t> order(active.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t lhs, std::uint32_t rhs) {
      const ActiveJob& a = active[lhs];
      const ActiveJob& b = active[rhs];
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.arrival != b.arrival) return a.arrival < b.arrival;
      return a.record < b.record;
    });
    const auto slots = static_cast<std::uint32_t>(std::min<std::size_t>(
        {active.size(), static_cast<std::size_t>(opt.max_concurrent),
         static_cast<std::size_t>(opt.gpus)}));
    order.resize(slots);

    // Modeled next-iteration work per running job: combination count times
    // the word cost of one candidate (BitSplicing shrinks it as the job's
    // cover progresses — late jobs genuinely get cheaper).
    std::vector<double> work(slots);
    std::vector<double> word_cost(slots);
    for (std::uint32_t j = 0; j < slots; ++j) {
      const ActiveJob& a = active[order[j]];
      word_cost[j] =
          static_cast<double>(words_for(a.engine->tumor().samples()) + a.normal_words);
      work[j] = static_cast<double>(a.model.total_work()) * word_cost[j];
    }
    const std::vector<std::uint32_t> grants = partition_gpus_across_jobs(work, opt.gpus);

    // Each job's iteration time: its inner equi-area schedule's critical
    // partition, plus the tree reduce across its grant.
    std::vector<double> duration(slots);
    double longest = 0.0;
    for (std::uint32_t j = 0; j < slots; ++j) {
      const ActiveJob& a = active[order[j]];
      const auto schedule = equiarea_schedule(a.model, grants[j]);
      const double max_work = schedule_imbalance(a.model, schedule).max_work * word_cost[j];
      duration[j] = max_work / opt.work_units_per_gpu_second +
                    static_cast<double>(ceil_log2(grants[j])) * 2.0 * opt.reduce_latency;
      longest = std::max(longest, duration[j]);
    }
    const double round_time = longest + opt.round_overhead;

    for (std::uint32_t j = 0; j < slots; ++j) {
      ActiveJob& a = active[order[j]];
      JobRecord& job = result.jobs[a.record];
      if (job.start < 0.0) job.start = round_begin;
      const std::uint32_t committed = a.engine->step(1);
      if (committed == 0 && !a.engine->done()) {
        throw std::logic_error("serve: session made no progress without finishing");
      }
      job.iterations += committed;
      job.rounds += 1;
      job.gpu_rounds += grants[j];
      if (rec) {
        rec->trace.complete(kJobLaneBase + a.record, "iteration", "serve", round_begin,
                            round_begin + duration[j],
                            {{"gpus", std::to_string(grants[j])}});
      }
    }

    now = round_begin + round_time;
    if (rec) {
      rec->metrics.counter("serve.rounds").add();
      rec->trace.complete(obs::kSchedulerLane, "serve_round", "serve", round_begin, now,
                          {{"jobs", std::to_string(slots)},
                           {"gpus", std::to_string(opt.gpus)}});
    }

    std::vector<ActiveJob> still;
    still.reserve(active.size());
    for (ActiveJob& a : active) {
      if (!a.engine->done()) {
        still.push_back(std::move(a));
        continue;
      }
      JobRecord& job = result.jobs[a.record];
      job.finish = now;
      job.selections = a.engine->result().combinations();
      if (opt.result_cache) cache_.store_result(job.cancer, job.hits, job.selections);
      if (rec) {
        rec->metrics.counter("serve.jobs_completed", {{"tenant", job.tenant}}).add();
        rec->metrics
            .histogram("serve.job_latency",
                       {{"source", "computed"}, {"tenant", job.tenant}})
            .observe(job.latency());
      }
      slo_event(job.tenant, is_bad_completion(job), now);
      release_next(job.client, now);
    }
    active = std::move(still);
    if (rec) rec->metrics.gauge("serve.queue_depth").set(static_cast<double>(active.size()));
  };

  while (!released.empty() || !active.empty()) {
    if (active.empty() && !released.empty()) now = std::max(now, released.top().first);
    // Drain every arrival up to the current round boundary, in arrival
    // order (admission is evaluated at iteration boundaries — the same
    // boundaries every scheduling decision happens on).
    while (!released.empty() && released.top().first <= now) {
      const auto [t, index] = released.top();
      released.pop();
      handle_arrival(index, t);
    }
    if (!active.empty()) run_round();
    sample_lanes(now);
  }

  // Aggregate. Exact percentiles via the sample-exact obs histogram.
  result.rounds = rounds;
  obs::Histogram all;
  struct TenantAgg {
    obs::Histogram latency;
    std::uint32_t completed = 0;
    std::uint32_t rejected = 0;
  };
  std::map<std::string, TenantAgg> tenants;
  for (const JobRecord& job : result.jobs) {
    TenantAgg& agg = tenants[job.tenant];
    if (job.outcome != JobOutcome::kCompleted) {
      ++result.rejected;
      ++agg.rejected;
      continue;
    }
    ++result.completed;
    if (job.cache_hit) ++result.cache_hits;
    all.observe(job.latency());
    agg.latency.observe(job.latency());
    ++agg.completed;
    result.makespan = std::max(result.makespan, job.finish);
  }
  result.p50_latency = all.percentile(50.0);
  result.p99_latency = all.percentile(99.0);
  result.mean_latency =
      all.count() > 0 ? all.sum() / static_cast<double>(all.count()) : 0.0;
  result.jobs_per_sec =
      result.makespan > 0.0 ? static_cast<double>(result.completed) / result.makespan : 0.0;
  for (auto& [name, agg] : tenants) {
    TenantStats stats;
    stats.tenant = name;
    stats.completed = agg.completed;
    stats.rejected = agg.rejected;
    stats.p50_latency = agg.latency.percentile(50.0);
    stats.p99_latency = agg.latency.percentile(99.0);
    stats.mean_latency = agg.latency.count() > 0
                             ? agg.latency.sum() / static_cast<double>(agg.latency.count())
                             : 0.0;
    result.tenants.push_back(std::move(stats));
  }
  result.cache = cache_.stats();
  return result;
}

obs::JsonValue serve_report(const ServeResult& result, const RequestTrace& trace,
                            const ServiceOptions& options) {
  using obs::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("schema", std::string(obs::kServeSchema));

  JsonValue t = JsonValue::object();
  t.set("mix", mix_name(trace.spec.mix));
  t.set("jobs", static_cast<std::uint64_t>(trace.spec.jobs));
  t.set("seed", static_cast<std::uint64_t>(trace.spec.seed));
  t.set("requests", static_cast<std::uint64_t>(trace.requests.size()));
  t.set("invalidate_rate", trace.spec.invalidate_rate);
  JsonValue tenant_specs = JsonValue::array();
  for (const TenantSpec& tenant : trace.spec.tenants) {
    JsonValue entry = JsonValue::object();
    entry.set("name", tenant.name);
    entry.set("priority", static_cast<std::uint64_t>(tenant.priority));
    entry.set("weight", tenant.weight);
    tenant_specs.push_back(std::move(entry));
  }
  t.set("tenants", std::move(tenant_specs));
  JsonValue cancers = JsonValue::array();
  for (const std::string& code : trace.spec.cancers) cancers.push_back(code);
  t.set("cancers", std::move(cancers));
  doc.set("trace", std::move(t));

  JsonValue service = JsonValue::object();
  service.set("gpus", static_cast<std::uint64_t>(options.gpus));
  service.set("max_concurrent", static_cast<std::uint64_t>(options.max_concurrent));
  service.set("queue_capacity", static_cast<std::uint64_t>(options.queue_capacity));
  service.set("tenant_quota", static_cast<std::uint64_t>(options.tenant_quota));
  service.set("work_units_per_gpu_second", options.work_units_per_gpu_second);
  service.set("round_overhead", options.round_overhead);
  service.set("reduce_latency", options.reduce_latency);
  service.set("cache_hit_seconds", options.cache_hit_seconds);
  service.set("result_cache", options.result_cache);
  doc.set("service", std::move(service));

  JsonValue summary = JsonValue::object();
  summary.set("rounds", static_cast<std::uint64_t>(result.rounds));
  summary.set("completed", static_cast<std::uint64_t>(result.completed));
  summary.set("rejected", static_cast<std::uint64_t>(result.rejected));
  summary.set("cache_hits", static_cast<std::uint64_t>(result.cache_hits));
  summary.set("makespan", result.makespan);
  summary.set("p50_latency", result.p50_latency);
  summary.set("p99_latency", result.p99_latency);
  summary.set("mean_latency", result.mean_latency);
  summary.set("jobs_per_sec", result.jobs_per_sec);
  doc.set("summary", std::move(summary));

  JsonValue tenants = JsonValue::array();
  for (const TenantStats& stats : result.tenants) {
    JsonValue entry = JsonValue::object();
    entry.set("tenant", stats.tenant);
    entry.set("completed", static_cast<std::uint64_t>(stats.completed));
    entry.set("rejected", static_cast<std::uint64_t>(stats.rejected));
    entry.set("p50_latency", stats.p50_latency);
    entry.set("p99_latency", stats.p99_latency);
    entry.set("mean_latency", stats.mean_latency);
    tenants.push_back(std::move(entry));
  }
  doc.set("tenants", std::move(tenants));

  JsonValue cache = JsonValue::object();
  cache.set("dataset_builds", static_cast<std::uint64_t>(result.cache.dataset_builds));
  cache.set("dataset_rebuilds", static_cast<std::uint64_t>(result.cache.dataset_rebuilds));
  cache.set("dataset_hits", static_cast<std::uint64_t>(result.cache.dataset_hits));
  cache.set("result_hits", static_cast<std::uint64_t>(result.cache.result_hits));
  cache.set("result_misses", static_cast<std::uint64_t>(result.cache.result_misses));
  cache.set("invalidations", static_cast<std::uint64_t>(result.cache.invalidations));
  doc.set("cache", std::move(cache));

  JsonValue jobs = JsonValue::array();
  for (const JobRecord& job : result.jobs) {
    JsonValue entry = JsonValue::object();
    entry.set("id", static_cast<std::uint64_t>(job.id));
    entry.set("client", static_cast<std::uint64_t>(job.client));
    entry.set("tenant", job.tenant);
    entry.set("cancer", job.cancer);
    entry.set("hits", static_cast<std::uint64_t>(job.hits));
    entry.set("priority", static_cast<std::uint64_t>(job.priority));
    entry.set("arrival", job.arrival);
    entry.set("start", job.start);
    entry.set("finish", job.finish);
    entry.set("outcome", outcome_name(job.outcome));
    entry.set("cache_hit", job.cache_hit);
    entry.set("iterations", static_cast<std::uint64_t>(job.iterations));
    entry.set("rounds", static_cast<std::uint64_t>(job.rounds));
    entry.set("gpu_rounds", static_cast<std::uint64_t>(job.gpu_rounds));
    if (job.outcome == JobOutcome::kCompleted) entry.set("latency", job.latency());
    JsonValue selections = JsonValue::array();
    for (const auto& combo : job.selections) {
      JsonValue genes = JsonValue::array();
      for (const std::uint32_t gene : combo) genes.push_back(static_cast<std::uint64_t>(gene));
      selections.push_back(std::move(genes));
    }
    entry.set("selections", std::move(selections));
    jobs.push_back(std::move(entry));
  }
  doc.set("jobs", std::move(jobs));
  return doc;
}

obs::SloInput slo_input(const ServeResult& result) {
  obs::SloInput input;
  input.jobs.reserve(result.jobs.size());
  for (const JobRecord& job : result.jobs) {
    obs::SloJob row;
    row.tenant = job.tenant;
    row.arrival = job.arrival;
    row.finish = job.finish;
    row.rejected = job.outcome != JobOutcome::kCompleted;
    row.cache_hit = job.cache_hit;
    if (!row.rejected) row.latency = job.latency();
    input.jobs.push_back(std::move(row));
  }
  return input;
}

void apply_scenario(TraceSpec& spec, ServiceOptions& options, Scenario scenario) {
  switch (scenario) {
    case Scenario::kNone:
      return;
    case Scenario::kOverload:
      // Bursts far beyond a shrunken queue: the backlog pins at capacity and
      // admission sheds load -> queue_saturation.
      spec.mix = ArrivalMix::kBursty;
      spec.burst_size = 12;
      spec.burst_every = 60.0;
      options.queue_capacity = 6;
      options.max_concurrent = 4;
      return;
    case Scenario::kStarvation:
      // A closed loop of three zero-think clients over two round slots and a
      // heavy gold majority (result cache off, so every gold job really
      // occupies a slot): a completing gold client resubmits at the same
      // instant, so gold's own queue age stays ~0 while a bronze roll waits
      // until a second client also rolls bronze -> tenant_starvation on
      // bronze against a near-zero fleet-relative baseline.
      spec.mix = ArrivalMix::kClosed;
      spec.clients = 3;
      spec.think_time = 0.0;
      spec.tenants = {{"gold", 2, 6.0}, {"bronze", 0, 1.0}};
      options.max_concurrent = 2;
      options.tenant_quota = 16;
      options.result_cache = false;
      return;
    case Scenario::kBurn:
      // An open-loop flood over a small queue with the result cache off:
      // rejections dominate and the windowed bad fraction torches the error
      // budget -> slo_fast_burn / slo_slow_burn (given a budget objective in
      // the SLO spec).
      spec.mix = ArrivalMix::kOpen;
      spec.mean_interarrival = 2.5;
      options.queue_capacity = 4;
      options.max_concurrent = 2;
      options.result_cache = false;
      return;
    case Scenario::kThrash:
      // An invalidation storm concentrated on one cancer type: nearly every
      // analyze rebuilds its dataset from scratch -> cache_thrash.
      spec.mix = ArrivalMix::kOpen;
      spec.invalidate_rate = 2.0;
      spec.cancers = {"BRCA"};
      return;
  }
}

}  // namespace multihit::serve
