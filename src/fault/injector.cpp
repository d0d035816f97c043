#include "fault/injector.hpp"

#include "obs/recorder.hpp"
#include "util/log.hpp"

namespace multihit {

FaultInjector::FaultInjector(FaultPlan plan, std::uint32_t ranks) : plan_(std::move(plan)) {
  plan_.validate(ranks);
}

double FaultInjector::crash_fraction(std::uint32_t rank, std::uint32_t iteration) const noexcept {
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kRankCrash && e.rank == rank && e.iteration == iteration) {
      return e.severity;
    }
  }
  return -1.0;
}

double FaultInjector::straggle_factor(std::uint32_t rank, std::uint32_t iteration) const noexcept {
  double factor = 1.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kStraggler && e.rank == rank && iteration >= e.iteration &&
        iteration < e.iteration + e.count) {
      factor *= e.severity;
    }
  }
  return factor;
}

std::uint32_t FaultInjector::drops(std::uint32_t rank, std::uint32_t iteration) const noexcept {
  std::uint32_t count = 0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kMessageDrop && e.rank == rank && e.iteration == iteration) {
      count += e.count;
    }
  }
  return count;
}

bool FaultInjector::job_abort(std::uint32_t iteration) const noexcept {
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kJobAbort && e.iteration == iteration) return true;
  }
  return false;
}

void FaultInjector::record(const FaultRecord& rec) {
  records_.push_back(rec);
  const char* kind = fault_kind_name(rec.kind);
  log::emit_event(log::Level::kInfo, std::string("fault.") + kind,
                  {log::field("rank", rec.rank), log::field("iter", rec.iteration),
                   log::field("t", rec.sim_time), log::field("cost", rec.cost)});
  if (recorder_) {
    const obs::Labels labels{{"kind", kind}};
    recorder_->metrics.counter("fault.events", labels).add(1.0);
    recorder_->metrics.histogram("fault.cost_seconds", labels).observe(rec.cost);
    // Job aborts are fleet-wide, not a rank event: they land on the driver
    // lane so rank lanes keep their monotone span order.
    const std::uint32_t lane =
        rec.kind == FaultKind::kJobAbort ? obs::kEngineLane : rec.rank;
    recorder_->trace.instant(lane, std::string("fault.") + kind, "fault", rec.sim_time,
                             {{"iteration", std::to_string(rec.iteration)},
                              {"cost_s", std::to_string(rec.cost)}});
  }
}

}  // namespace multihit
