#pragma once
// Job and request-trace types for the multi-tenant analysis service.
//
// The paper runs ONE weighted-set-cover job partitioned across the whole
// fleet; the serving layer's unit of work is instead a *request*: a tenant
// asks for the multi-hit analysis of one cancer type. A request trace is a
// seeded, fully deterministic sequence of such requests — open-loop
// (Poisson), closed-loop (a fixed client population with think times),
// bursty, or diurnal — that the JobService replays on the simulated clock.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace multihit::serve {

enum class RequestKind {
  kAnalyze,     ///< run (or serve from cache) one cancer-type analysis
  kInvalidate,  ///< drop the cancer type's cached matrices and results
};

struct Request {
  /// Simulated arrival second. Open mixes carry absolute times; in a
  /// closed-loop trace only each client's FIRST request is absolute — later
  /// ones hold the think time added to the client's previous completion.
  double arrival = 0.0;
  std::uint32_t client = 0;  ///< closed-loop client id; unused in open mixes
  std::string tenant;
  std::uint32_t priority = 0;  ///< higher is scheduled first (iteration-boundary preemption)
  RequestKind kind = RequestKind::kAnalyze;
  std::string cancer;  ///< registry code ("BRCA", "LUAD", ...)
  /// 0 = the registry's estimated hit count for the cancer type.
  std::uint32_t hits = 0;
};

enum class ArrivalMix { kOpen, kClosed, kBursty, kDiurnal };

const char* mix_name(ArrivalMix mix) noexcept;
std::optional<ArrivalMix> parse_mix(std::string_view name) noexcept;

struct TenantSpec {
  std::string name;
  std::uint32_t priority = 0;
  double weight = 1.0;  ///< sampling weight in the request mix
};

struct TraceSpec {
  ArrivalMix mix = ArrivalMix::kOpen;
  std::uint32_t jobs = 24;  ///< analyze requests to generate
  std::uint64_t seed = 1;
  double mean_interarrival = 20.0;  ///< s (open; bursty/diurnal base rate)
  std::uint32_t clients = 4;        ///< closed-loop population
  double think_time = 15.0;         ///< closed-loop think time (s)
  std::uint32_t burst_size = 6;     ///< bursty: requests per burst
  double burst_every = 120.0;       ///< bursty: burst period (s)
  double diurnal_period = 600.0;    ///< diurnal: one "day" (s)
  double diurnal_amplitude = 0.8;   ///< rate modulation in [0, 1)
  /// Extra invalidation requests as a fraction of `jobs`, spread uniformly
  /// over the arrival window (open mixes only).
  double invalidate_rate = 0.0;
  /// Defaults to gold(2)/silver(1)/bronze(0) with weights 1/2/3.
  std::vector<TenantSpec> tenants;
  /// Registry codes to sample from; defaults to the full cancer registry.
  std::vector<std::string> cancers;
};

struct RequestTrace {
  TraceSpec spec;  ///< with defaults materialized
  /// Arrival-ordered for open mixes; per-client program order preserved for
  /// closed loop (the service materializes actual arrival times).
  std::vector<Request> requests;
};

/// Planted serve pathologies for detector scoring: each scenario rewrites a
/// trace spec + service config so exactly one failure class manifests, and
/// the matching monitor detector (queue_saturation, tenant_starvation,
/// slo_*_burn, cache_thrash) must catch it — the serve-side analogue of the
/// cluster fault injector's labeled ground truth.
enum class Scenario { kNone, kOverload, kStarvation, kBurn, kThrash };

const char* scenario_name(Scenario scenario) noexcept;
std::optional<Scenario> parse_scenario(std::string_view name) noexcept;

/// Deterministic: the same spec always yields byte-for-byte the same trace.
RequestTrace generate_trace(const TraceSpec& spec);

enum class JobOutcome { kCompleted, kRejectedQueueFull, kRejectedQuota };

const char* outcome_name(JobOutcome outcome) noexcept;

/// Everything the service records about one admitted-or-rejected request.
struct JobRecord {
  std::uint32_t id = 0;
  std::uint32_t client = 0;
  std::string tenant;
  std::string cancer;
  std::uint32_t hits = 0;
  double arrival = 0.0;
  double start = -1.0;   ///< first scheduling round it ran in (-1 = never ran)
  double finish = -1.0;  ///< completion time (-1 = rejected)
  std::uint32_t iterations = 0;  ///< greedy iterations committed
  bool cache_hit = false;
  JobOutcome outcome = JobOutcome::kCompleted;
  std::vector<std::vector<std::uint32_t>> selections;  ///< the analysis answer

  double latency() const noexcept { return finish - arrival; }
};

}  // namespace multihit::serve
