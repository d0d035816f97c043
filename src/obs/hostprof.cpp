#include "obs/hostprof.hpp"

#include <cmath>
#include <stdexcept>

namespace multihit::obs {

HostProfiler::HostProfiler(MetricsRegistry* metrics) : origin_(HostClock::now()) {
  if (metrics == nullptr) return;
  static constexpr const char* kNames[kTallies] = {
      "hostsweep.sweeps",     "hostsweep.chunks",       "hostsweep.skipped_chunks",
      "hostsweep.claims",     "hostsweep.empty_polls",  "hostsweep.candidates",
      "hostsweep.combinations", "hostsweep.and2_calls", "hostsweep.and_rows_calls"};
  // Resolved once: a sweep then adds to held references, never re-resolves.
  for (std::size_t i = 0; i < kTallies; ++i) counters_[i] = &metrics->counter(kNames[i]);
}

void HostProfiler::add(Tally tally, std::uint64_t n) {
  if (counters_[tally] != nullptr) counters_[tally]->add(static_cast<double>(n));
}

double HostProfiler::seconds(HostClock::time_point t) const {
  // Snapped to a 2^-24 s (~60 ns) grid. A grid point below ~536 s times 1e6
  // is an exact double, so the trace's microsecond timestamps and durations
  // parse back to these same seconds and a re-export is byte-identical.
  const double raw = std::chrono::duration<double>(t - origin_).count();
  return std::ldexp(std::nearbyint(std::ldexp(raw, 24)), -24);
}

void HostProfiler::begin_sweep(HostSweepSetup setup) {
  if (in_sweep_) throw std::logic_error("HostProfiler: begin_sweep with a sweep already open");
  in_sweep_ = true;
  if (setup.workers > workers_) workers_ = setup.workers;
  setups_.push_back(std::move(setup));
  sweep_chunks_ = 0;
  idle_from_.clear();
}

void HostProfiler::record_worker(std::uint32_t worker, const HostWorkerSample& sample) {
  if (!in_sweep_) throw std::logic_error("HostProfiler: record_worker outside a sweep");
  if (worker >= setups_.back().workers) {
    throw std::logic_error("HostProfiler: record_worker beyond the sweep's worker count");
  }
  HostClock::time_point mark = sample.started;
  for (const auto& [claimed, evaluated] : sample.evaluated) {
    spans_.push_back({worker, Phase::kClaim, mark, claimed});
    spans_.push_back({worker, Phase::kEvaluate, claimed, evaluated});
    profile_.eval_seconds += std::chrono::duration<double>(evaluated - claimed).count();
    mark = evaluated;
  }
  idle_from_.emplace_back(worker, mark);

  sweep_chunks_ += sample.chunks;
  add(kChunks, sample.chunks);
  add(kSkippedChunks, sample.skipped_chunks);
  add(kClaims, sample.chunks);  // every successful poll claims one chunk
  add(kCandidates, sample.candidates);
  add(kCombinations, sample.combinations);
  add(kAnd2Calls, sample.and2_calls);
  add(kAndRowsCalls, sample.and_rows_calls);
}

void HostProfiler::end_sweep(const HostSweepClose& close) {
  if (!in_sweep_) throw std::logic_error("HostProfiler: end_sweep without begin_sweep");
  in_sweep_ = false;
  // Tail idle: from a worker's last evaluation to the last worker's join —
  // the end-of-sweep load-imbalance cost.
  for (const auto& [worker, from] : idle_from_) {
    spans_.push_back({worker, Phase::kTailIdle, from, close.joined});
  }
  const HostClock::time_point started = setups_.back().started;
  spans_.push_back({kHostSweepLane, Phase::kSweep, started, close.merged});
  spans_.push_back({kHostSweepLane, Phase::kMerge, close.joined, close.merged});
  profile_.sweeps.push_back(
      {std::chrono::duration<double>(close.merged - started).count(),
       std::chrono::duration<double>(close.merged - close.joined).count()});

  add(kSweeps, 1);
  // Each launched worker's drain ends on one failed poll.
  add(kEmptyPolls, close.polls - sweep_chunks_);
}

Tracer HostProfiler::trace() const {
  static constexpr const char* kPhaseNames[] = {"claim", "evaluate", "tail_idle", "sweep",
                                                "merge"};
  static constexpr const char* kCategories[] = {"queue", "compute", "idle", "sweep", "sweep"};
  Tracer trace;
  if (!setups_.empty()) trace.set_lane_name(kHostSweepLane, "host sweep");
  for (std::uint32_t worker = 0; worker < workers_; ++worker) {
    trace.set_lane_name(worker, "worker " + std::to_string(worker));
  }
  std::size_t sweep = 0;
  for (const Span& span : spans_) {
    SpanArgs args;
    if (span.phase == Phase::kSweep) {
      const HostSweepSetup& setup = setups_[sweep++];
      args = {{"workers", std::to_string(setup.workers)},
              {"chunk_size", std::to_string(setup.chunk_size)},
              {"lambda_end", std::to_string(setup.lambda_end)},
              {"hits", std::to_string(setup.hits)},
              {"scheme", setup.scheme},
              {"backend", setup.backend}};
    }
    const auto phase = static_cast<std::size_t>(span.phase);
    trace.complete(span.lane, kPhaseNames[phase], kCategories[phase], seconds(span.begin),
                   seconds(span.end), std::move(args));
  }
  return trace;
}

}  // namespace multihit::obs
