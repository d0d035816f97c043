#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "data/registry.hpp"
#include "serve/job.hpp"
#include "util/rng.hpp"

namespace multihit::serve {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Inverse-CDF exponential variate; deterministic from the trace Rng.
double exponential(Rng& rng, double mean) {
  const double u = rng.uniform_double();  // [0, 1)
  return -std::log(1.0 - u) * mean;
}

std::size_t weighted_pick(Rng& rng, const std::vector<TenantSpec>& tenants) {
  double total = 0.0;
  for (const TenantSpec& t : tenants) total += t.weight;
  double mark = rng.uniform_double() * total;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    mark -= tenants[i].weight;
    if (mark < 0.0) return i;
  }
  return tenants.size() - 1;
}

}  // namespace

const char* mix_name(ArrivalMix mix) noexcept {
  switch (mix) {
    case ArrivalMix::kOpen:
      return "open";
    case ArrivalMix::kClosed:
      return "closed";
    case ArrivalMix::kBursty:
      return "bursty";
    case ArrivalMix::kDiurnal:
      return "diurnal";
  }
  return "?";
}

std::optional<ArrivalMix> parse_mix(std::string_view name) noexcept {
  if (name == "open") return ArrivalMix::kOpen;
  if (name == "closed") return ArrivalMix::kClosed;
  if (name == "bursty") return ArrivalMix::kBursty;
  if (name == "diurnal") return ArrivalMix::kDiurnal;
  return std::nullopt;
}

const char* scenario_name(Scenario scenario) noexcept {
  switch (scenario) {
    case Scenario::kNone:
      return "none";
    case Scenario::kOverload:
      return "overload";
    case Scenario::kStarvation:
      return "starvation";
    case Scenario::kBurn:
      return "burn";
    case Scenario::kThrash:
      return "thrash";
  }
  return "?";
}

std::optional<Scenario> parse_scenario(std::string_view name) noexcept {
  if (name == "none") return Scenario::kNone;
  if (name == "overload") return Scenario::kOverload;
  if (name == "starvation") return Scenario::kStarvation;
  if (name == "burn") return Scenario::kBurn;
  if (name == "thrash") return Scenario::kThrash;
  return std::nullopt;
}

const char* outcome_name(JobOutcome outcome) noexcept {
  switch (outcome) {
    case JobOutcome::kCompleted:
      return "completed";
    case JobOutcome::kRejectedQueueFull:
      return "rejected_queue_full";
    case JobOutcome::kRejectedQuota:
      return "rejected_quota";
  }
  return "?";
}

RequestTrace generate_trace(const TraceSpec& spec_in) {
  RequestTrace trace;
  trace.spec = spec_in;
  TraceSpec& spec = trace.spec;
  if (spec.jobs == 0) throw std::invalid_argument("trace: jobs must be > 0");
  if (spec.mean_interarrival <= 0.0) {
    throw std::invalid_argument("trace: mean_interarrival must be > 0");
  }
  if (spec.mix == ArrivalMix::kClosed && spec.clients == 0) {
    throw std::invalid_argument("trace: closed loop needs clients > 0");
  }
  if (spec.diurnal_amplitude < 0.0 || spec.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument("trace: diurnal_amplitude must be in [0, 1)");
  }
  if (spec.mix == ArrivalMix::kBursty && spec.burst_size == 0) {
    throw std::invalid_argument("trace: bursty mix needs burst_size > 0");
  }
  // The invalidation count below is a u32: a rate that overflows it (or is
  // not a number) is refused here rather than cast out of range.
  if (!(spec.invalidate_rate * static_cast<double>(spec.jobs) <=
        static_cast<double>(std::numeric_limits<std::uint32_t>::max()))) {
    throw std::invalid_argument("trace: invalidate_rate x jobs must fit a 32-bit count");
  }
  if (spec.tenants.empty()) {
    spec.tenants = {{"gold", 2, 1.0}, {"silver", 1, 2.0}, {"bronze", 0, 3.0}};
  }
  if (spec.cancers.empty()) {
    for (const CancerType& type : cancer_registry()) spec.cancers.push_back(type.code);
  }

  Rng rng(spec.seed);
  const auto flesh_out = [&](Request& r) {
    const TenantSpec& tenant = spec.tenants[weighted_pick(rng, spec.tenants)];
    r.tenant = tenant.name;
    r.priority = tenant.priority;
    r.cancer = spec.cancers[rng.uniform(spec.cancers.size())];
  };

  double t = 0.0;
  for (std::uint32_t i = 0; i < spec.jobs; ++i) {
    Request r;
    switch (spec.mix) {
      case ArrivalMix::kOpen:
        t += exponential(rng, spec.mean_interarrival);
        r.arrival = t;
        break;
      case ArrivalMix::kBursty:
        // Whole bursts land at the period marks — the thundering herd the
        // admission queue and quotas exist for.
        r.arrival = static_cast<double>(i / spec.burst_size) * spec.burst_every;
        break;
      case ArrivalMix::kDiurnal: {
        // Rate modulated over the "day": the local mean interarrival
        // stretches in the trough and compresses at the peak.
        const double phase = std::sin(2.0 * kPi * t / spec.diurnal_period);
        const double local_mean =
            spec.mean_interarrival / (1.0 + spec.diurnal_amplitude * phase);
        t += exponential(rng, local_mean);
        r.arrival = t;
        break;
      }
      case ArrivalMix::kClosed:
        // Client i%C's program; only its first request carries an absolute
        // arrival (a staggered session start), later ones carry think time.
        r.client = i % spec.clients;
        r.arrival = i < spec.clients ? rng.uniform_double() * spec.think_time
                                     : spec.think_time;
        break;
    }
    flesh_out(r);  // tenant/priority/cancer
    trace.requests.push_back(std::move(r));
  }

  if (spec.mix != ArrivalMix::kClosed && spec.invalidate_rate > 0.0) {
    const double window = trace.requests.empty() ? 0.0 : trace.requests.back().arrival;
    const auto invalidations =
        static_cast<std::uint32_t>(spec.invalidate_rate * static_cast<double>(spec.jobs));
    for (std::uint32_t i = 0; i < invalidations; ++i) {
      Request r;
      r.kind = RequestKind::kInvalidate;
      r.arrival = rng.uniform_double() * window;
      r.tenant = "admin";
      r.cancer = spec.cancers[rng.uniform(spec.cancers.size())];
      trace.requests.push_back(std::move(r));
    }
    std::stable_sort(trace.requests.begin(), trace.requests.end(),
                     [](const Request& a, const Request& b) { return a.arrival < b.arrival; });
  }
  return trace;
}

}  // namespace multihit::serve
