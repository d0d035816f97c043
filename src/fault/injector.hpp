#pragma once
// Runtime side of fault injection: answers "what goes wrong for rank r in
// iteration i?" queries from the cluster driver, and collects a structured
// record of every fault that actually fired (also emitted through the
// structured logger as `fault.crash rank=.. iter=.. t=.. cost=..` events).

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"

namespace multihit::obs {
struct Recorder;
}  // namespace multihit::obs

namespace multihit {

/// One fault that fired during a run, with its modeled cost attribution.
struct FaultRecord {
  FaultKind kind = FaultKind::kRankCrash;
  std::uint32_t rank = 0;
  std::uint32_t iteration = 0;
  double sim_time = 0.0;  ///< simulated seconds when the fault fired
  double cost = 0.0;      ///< modeled seconds of overhead attributed to it
};

class FaultInjector {
 public:
  FaultInjector() = default;

  /// Validates the plan against the rank count (throws std::invalid_argument
  /// on malformed plans, see FaultPlan::validate).
  FaultInjector(FaultPlan plan, std::uint32_t ranks);

  bool enabled() const noexcept { return !plan_.empty(); }

  /// Crash fraction for (rank, iteration): the fraction of that rank's
  /// compute completed before it dies, or a negative value if the rank does
  /// not crash in that iteration.
  double crash_fraction(std::uint32_t rank, std::uint32_t iteration) const noexcept;

  /// Combined compute slowdown factor (>= 1) for (rank, iteration); window
  /// events overlapping the iteration multiply together.
  double straggle_factor(std::uint32_t rank, std::uint32_t iteration) const noexcept;

  /// Number of messages sourced at `rank` to drop during `iteration`.
  std::uint32_t drops(std::uint32_t rank, std::uint32_t iteration) const noexcept;

  /// True when the whole allocation dies before `iteration`.
  bool job_abort(std::uint32_t iteration) const noexcept;

  /// Appends a fired-fault record and emits the structured log event; with a
  /// recorder attached, also counts the fault (fault.events{kind}), observes
  /// its cost (fault.cost_seconds{kind}), and drops a "fault.<kind>" instant
  /// (category "fault", arg "iteration") on the rank's lane — the engine
  /// lane for a job abort — at the fault's simulated time. Those instants
  /// are the health monitor's ground truth (obs::truth_from_trace).
  void record(const FaultRecord& rec);

  /// Attaches (or detaches, with nullptr) the observability recorder.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

  const std::vector<FaultRecord>& records() const noexcept { return records_; }
  std::vector<FaultRecord> take_records() noexcept { return std::move(records_); }

 private:
  FaultPlan plan_;
  std::vector<FaultRecord> records_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace multihit
