#include "cluster/distributed.hpp"

#include <algorithm>
#include <utility>

#include "core/session.hpp"
#include "gpusim/device.hpp"
#include "obs/recorder.hpp"
#include "sched/memaware.hpp"
#include "sched/workload.hpp"
#include "util/log.hpp"

namespace multihit {

const char* scheduler_name(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kEquiDistance: return "equi_distance";
    case SchedulerKind::kEquiArea: return "equi_area";
    case SchedulerKind::kMemoryAware: return "memory_aware";
  }
  return "?";
}

namespace {

Partition intersect(const Partition& a, const Partition& b) noexcept {
  const u64 begin = std::max(a.begin, b.begin);
  const u64 end = std::min(a.end, b.end);
  return begin < end ? Partition{begin, end} : Partition{};
}

}  // namespace

ClusterRunResult ClusterRunner::run(const Dataset& data,
                                    const DistributedOptions& options) const {
  const Scheme scheme{options.hits, options.hits - options.inner};
  options.faults.validate(config_.nodes);

  ClusterRunResult result;
  const std::uint32_t gpn = config_.gpus_per_node;
  const std::uint32_t total_units = config_.units();
  obs::Recorder* const rec = options.recorder;
  const GpuDevice device(config_.device, rec);

  // The workload model depends only on G, which never changes across
  // iterations (BitSplicing removes samples, not genes) — built once,
  // exactly as rank 0 does in the paper. The *schedule* is rebuilt over the
  // surviving GPUs after every rank failure.
  const WorkloadModel model = WorkloadModel::for_scheme(scheme, data.genes());
  const double schedule_build_time =
      static_cast<double>(model.levels().size()) * config_.schedule_seconds_per_level;
  const auto build_schedule = [&](std::uint32_t units) {
    switch (options.scheduler) {
      case SchedulerKind::kEquiDistance:
        return equidistance_schedule(model, units);
      case SchedulerKind::kMemoryAware:
        return memaware_schedule(model, units,
                                 memory_cost_weights(options.hits, options.mem_opts));
      case SchedulerKind::kEquiArea:
      default:
        return equiarea_schedule(model, units);
    }
  };
  std::vector<Partition> schedule = build_schedule(total_units);
  result.schedule_time = schedule_build_time;

  // State threaded through the whole run: the communicator (clocks and
  // liveness persist across iterations — a crashed rank stays dead), the
  // injector, and checkpoint bookkeeping.
  SimComm comm(config_.nodes, config_.comm);
  comm.set_recorder(rec);
  FaultInjector injector(options.faults, config_.nodes);
  injector.set_recorder(rec);

  if (rec) {
    if (rec->profile.enabled()) rec->profile.set_device(profile_device_info(config_.device));
    rec->trace.set_lane_name(obs::kEngineLane, "engine");
    rec->trace.set_lane_name(obs::kSchedulerLane, "scheduler");
    for (std::uint32_t r = 0; r < config_.nodes; ++r) {
      rec->trace.set_lane_name(r, "rank " + std::to_string(r));
    }
    rec->trace.complete(obs::kSchedulerLane, "schedule_build", "driver", 0.0,
                        schedule_build_time, {{"units", std::to_string(total_units)}});
    rec->metrics.gauge("cluster.nodes").set(static_cast<double>(config_.nodes));
    rec->metrics.gauge("cluster.gpus").set(static_cast<double>(total_units));
  }

  // Collective/phase spans are deltas of the per-rank simulated clocks: a
  // snapshot before, the phase itself, then one span per rank whose clock
  // advanced. Dead ranks' clocks are frozen, so they emit nothing.
  std::vector<double> clock_snap(config_.nodes);
  const auto snap_clocks = [&] {
    for (std::uint32_t r = 0; r < config_.nodes; ++r) clock_snap[r] = comm.clock(r);
  };
  const auto emit_clock_spans = [&](const char* name, const char* category,
                                    obs::SpanArgs args = {}) {
    for (std::uint32_t r = 0; r < config_.nodes; ++r) {
      if (comm.clock(r) > clock_snap[r]) {
        rec->trace.complete(r, name, category, clock_snap[r], comm.clock(r), args);
      }
    }
  };
  std::uint32_t iter = 0;
  double abort_time = 0.0;           // allocation restarts; outside the clocks
  double last_checkpoint_mark = 0.0; // comm wall-clock at the last snapshot

  // One distributed greedy iteration: compute -> reduce -> (recover) ->
  // broadcast -> splice. The engine supplies the greedy loop and
  // BitSplicing.
  const Evaluator evaluator = [&](const BitMatrix& tumor, const BitMatrix& normal,
                                  const FContext& ctx) -> EvalResult {
    IterationTelemetry telemetry;
    telemetry.gpus.resize(total_units);
    telemetry.rank_compute.assign(config_.nodes, 0.0);
    telemetry.rank_comm.assign(config_.nodes, 0.0);

    const double t_start = comm.finish_time();
    std::vector<double> compute_at_start(config_.nodes), comm_at_start(config_.nodes);
    for (std::uint32_t r = 0; r < config_.nodes; ++r) {
      compute_at_start[r] = comm.compute_time(r);
      comm_at_start[r] = comm.comm_time(r);
    }

    // Whole-allocation loss: the rerun from the last checkpoint replays this
    // exact state bit-identically (the determinism invariant), so the fault
    // costs only the wall-clock since the snapshot plus a fresh job launch —
    // no work is redone here.
    if (injector.job_abort(iter)) {
      const double penalty =
          (t_start - last_checkpoint_mark) + config_.job_overhead() + schedule_build_time;
      abort_time += penalty;
      result.recovery_time += penalty;
      injector.record({FaultKind::kJobAbort, 0, iter, t_start, penalty});
      // Operational telemetry (distinct from the injector's ground-truth
      // instant): the driver genuinely observes its own allocation bouncing,
      // so the restart is visible to the health monitor.
      if (rec) {
        rec->trace.instant(obs::kEngineLane, "job_restart", "driver", t_start,
                           {{"iteration", std::to_string(iter)}});
      }
    }

    // Message-drop budget for this iteration, consumed in deterministic
    // clock order by the collectives below.
    std::vector<std::uint32_t> drop_budget(config_.nodes);
    bool any_drops = false;
    for (std::uint32_t r = 0; r < config_.nodes; ++r) {
      drop_budget[r] = injector.drops(r, iter);
      any_drops = any_drops || drop_budget[r] > 0;
    }
    if (any_drops) {
      // A rank's whole drop budget hits its next tree message as repeated
      // lost attempts (retransmissions can be lost too), so the full count
      // is always charged — a reduce leaf only sends once per iteration.
      comm.set_message_faults([&](std::uint32_t src, std::uint32_t, std::uint64_t) {
        MessageFault fault;
        if (drop_budget[src] > 0) {
          fault.drops = drop_budget[src];
          drop_budget[src] = 0;
          injector.record({FaultKind::kMessageDrop, src, iter, comm.clock(src),
                           fault.drops * config_.comm.retransmit_timeout});
        }
        return fault;
      });
    }

    // --- compute phase over the current schedule (surviving nodes only).
    // Units are schedule slots: node at position `pos` of the survivor list
    // drives slots [pos*gpn, (pos+1)*gpn). Fault-free this equals the
    // original absolute unit numbering.
    const std::vector<std::uint32_t> active = comm.alive_ranks();
    std::vector<EvalResult> rank_candidates(config_.nodes);
    std::vector<Partition> lost;                       // λ ranges of this iteration's dead
    std::vector<std::pair<std::uint32_t, double>> crashed;  // (rank, death time)
    for (std::uint32_t pos = 0; pos < active.size(); ++pos) {
      const std::uint32_t node = active[pos];
      const double straggle = injector.straggle_factor(node, iter);
      const double crash_frac = injector.crash_fraction(node, iter);
      const double c0 = comm.clock(node);
      EvalResult node_best;
      double node_time = 0.0;  // the node's GPUs run concurrently
      double occupancy_peak = 0.0, throughput_sum = 0.0;  // counter-track samples
      for (std::uint32_t g = 0; g < gpn; ++g) {
        const std::uint32_t unit = pos * gpn + g;
        if (rec) rec->profile.set_context({node, unit, iter, /*recovery=*/false});
        const DeviceRunResult run =
            device.run(tumor, normal, ctx, scheme, schedule[unit], options.mem_opts);
        GpuTiming timing = run.timing;
        const double slowdown = config_.jitter_factor(unit) * config_.noise_factor() * straggle;
        timing.time *= slowdown;
        telemetry.gpus[unit] = timing;
        telemetry.candidate_bytes_total += run.candidate_bytes;
        telemetry.combinations += run.stats.combinations;
        node_best = merge_results(node_best, run.best);
        node_time = std::max(node_time, timing.time);
        // An empty partition never launches: run_pipeline returned without
        // recording, so there is no profile row to place on the clock.
        if (rec && run.blocks > 0) rec->profile.annotate_last(c0, timing.time);
        if (rec && timing.time > 0.0) {
          // The node's GPUs run concurrently: each kernel span starts at the
          // rank clock, nested inside the compute span emitted below.
          const StallBreakdown stalls = stall_breakdown(timing);
          occupancy_peak = std::max(occupancy_peak, timing.occupancy);
          // Effective throughput: the same bytes over a slowdown-stretched
          // window. This is what a real DCGM counter would read on a
          // straggling device — and what the gpu_collapse detector watches.
          throughput_sum += timing.dram_throughput / slowdown;
          rec->trace.complete(
              node, "gpu_kernel", "gpu", c0, c0 + timing.time,
              {{"gpu", std::to_string(g)},
               {"occupancy", std::to_string(timing.occupancy)},
               {"dram_throughput", std::to_string(timing.dram_throughput)},
               {"memory_bound", timing.memory_bound ? "true" : "false"},
               {"stall_memory_dependency", std::to_string(stalls.memory_dependency)},
               {"global_bytes",
                obs::json_number(static_cast<double>(run.stats.global_words) * 8.0)}});
        }
      }
      // Perfetto counter tracks: the rank's peak kernel occupancy and summed
      // DRAM throughput over the compute window, dropped back to zero when
      // the window ends (at the crash for a dying rank).
      if (rec && node_time > 0.0) {
        rec->trace.counter(node, "gpu_occupancy", c0, occupancy_peak);
        rec->trace.counter(node, "gpu_dram_throughput", c0, throughput_sum);
        const double window_end =
            crash_frac >= 0.0 ? c0 + crash_frac * node_time : c0 + node_time;
        rec->trace.counter(node, "gpu_occupancy", window_end, 0.0);
        rec->trace.counter(node, "gpu_dram_throughput", window_end, 0.0);
      }
      if (crash_frac >= 0.0) {
        // Dies mid-compute: the partial work is lost with it, and its λ
        // ranges must be re-run on the survivors.
        comm.fail(node, comm.clock(node) + crash_frac * node_time);
        for (std::uint32_t g = 0; g < gpn; ++g) lost.push_back(schedule[pos * gpn + g]);
        crashed.emplace_back(node, comm.clock(node));
        ++result.ranks_lost;
        if (rec) {
          // The partial work died with the rank: flag its launch records so
          // the profile's lost_kernels rollups line up with ranks_lost.
          rec->profile.mark_node_lost(node, iter);
          rec->metrics.counter("cluster.ranks_lost").add(1.0);
          rec->trace.complete(node, "compute", "compute", c0,
                              c0 + crash_frac * node_time, {{"crashed", "true"}});
        }
      } else {
        if (straggle > 1.0) {
          injector.record({FaultKind::kStraggler, node, iter, comm.clock(node),
                           node_time * (1.0 - 1.0 / straggle)});
        }
        rank_candidates[node] = node_best;
        comm.compute(node, node_time);
        if (rec && comm.clock(node) > c0) {
          rec->trace.complete(node, "compute", "compute", c0, comm.clock(node),
                              {{"iteration", std::to_string(iter)}});
        }
      }
    }

    // One 20-byte candidate per surviving rank toward the lowest surviving
    // rank; newly-dead ranks are detected here (survivors pay the window).
    const std::uint32_t root = comm.lowest_alive();
    if (rec) snap_clocks();
    EvalResult best =
        comm.reduce(std::span<const EvalResult>(rank_candidates), root, kCandidateBytes,
                    [](const EvalResult& a, const EvalResult& b) { return merge_results(a, b); });
    if (rec) emit_clock_spans("mpi_reduce", "comm", {{"iteration", std::to_string(iter)}});

    // --- recovery: re-partition over the survivors and re-run the lost λ
    // ranges. The new equi-area schedule covers [0, total), so intersecting
    // it with the lost ranges re-runs exactly the missing combinations;
    // merge_results' associativity + commutativity (invalid = identity)
    // makes the re-merged winner identical to the fault-free one.
    if (!lost.empty()) {
      const double t_recover = comm.finish_time();
      const std::vector<std::uint32_t> survivors = comm.alive_ranks();
      std::vector<Partition> next_schedule =
          build_schedule(static_cast<std::uint32_t>(survivors.size()) * gpn);
      result.schedule_time += schedule_build_time;
      if (rec) {
        rec->trace.complete(obs::kSchedulerLane, "schedule_rebuild", "driver", t_recover,
                            t_recover + schedule_build_time,
                            {{"survivors", std::to_string(survivors.size())}});
        snap_clocks();
      }
      comm.broadcast(root, 8);  // root announces the re-partition
      if (rec) emit_clock_spans("mpi_broadcast", "comm", {{"iteration", std::to_string(iter)}});

      std::vector<EvalResult> recovery(config_.nodes);
      // Recovery kernel spans are buffered and emitted *after* the enclosing
      // recovery_compute span: segments of different GPUs start at different
      // offsets, so appending them as they run would break the per-lane
      // monotone order the trace format requires.
      struct PendingKernelSpan {
        double begin = 0.0, end = 0.0;
        std::uint32_t gpu = 0;
        double global_bytes = 0.0;
      };
      std::vector<PendingKernelSpan> pending;
      for (std::uint32_t pos = 0; pos < survivors.size(); ++pos) {
        const std::uint32_t node = survivors[pos];
        const double straggle = injector.straggle_factor(node, iter);
        const double r0 = comm.clock(node);
        double node_time = 0.0;
        pending.clear();
        for (std::uint32_t g = 0; g < gpn; ++g) {
          const std::uint32_t unit = pos * gpn + g;
          double gpu_time = 0.0;  // lost segments run back-to-back on the GPU
          for (const Partition& range : lost) {
            const Partition segment = intersect(next_schedule[unit], range);
            if (segment.size() == 0) continue;
            if (rec) rec->profile.set_context({node, unit, iter, /*recovery=*/true});
            const DeviceRunResult run =
                device.run(tumor, normal, ctx, scheme, segment, options.mem_opts);
            recovery[node] = merge_results(recovery[node], run.best);
            const double segment_time = run.timing.time * config_.jitter_factor(unit) *
                                        config_.noise_factor() * straggle;
            if (rec && run.blocks > 0) {
              rec->profile.annotate_last(r0 + gpu_time, segment_time);
              if (segment_time > 0.0) {
                pending.push_back(
                    {r0 + gpu_time, r0 + gpu_time + segment_time, g,
                     static_cast<double>(run.stats.global_words) * 8.0});
              }
            }
            gpu_time += segment_time;
            telemetry.candidate_bytes_total += run.candidate_bytes;
            telemetry.combinations += run.stats.combinations;
          }
          node_time = std::max(node_time, gpu_time);
        }
        comm.compute(node, node_time);
        if (rec && comm.clock(node) > r0) {
          rec->trace.complete(node, "recovery_compute", "recovery", r0, comm.clock(node),
                              {{"iteration", std::to_string(iter)}});
          std::stable_sort(pending.begin(), pending.end(),
                           [](const PendingKernelSpan& a, const PendingKernelSpan& b) {
                             return a.begin < b.begin;
                           });
          for (const PendingKernelSpan& span : pending) {
            rec->trace.complete(node, "gpu_kernel", "gpu", span.begin, span.end,
                                {{"gpu", std::to_string(span.gpu)},
                                 {"recovery", "true"},
                                 {"global_bytes", obs::json_number(span.global_bytes)}});
          }
        }
      }
      if (rec) snap_clocks();
      best = merge_results(
          best, comm.reduce(std::span<const EvalResult>(recovery), root, kCandidateBytes,
                            [](const EvalResult& a, const EvalResult& b) {
                              return merge_results(a, b);
                            }));
      if (rec) emit_clock_spans("mpi_reduce", "comm", {{"iteration", std::to_string(iter)}});
      schedule = std::move(next_schedule);

      const double recovered =
          comm.finish_time() - t_recover + config_.comm.detection_window;
      result.recovery_time += recovered;
      for (const auto& [node, death] : crashed) {
        injector.record({FaultKind::kRankCrash, node, iter, death,
                         recovered / static_cast<double>(crashed.size())});
      }
      MH_LOG_INFO << "iteration " << iter << ": " << crashed.size()
                  << " rank(s) lost, re-partitioned onto " << survivors.size()
                  << " nodes (" << survivors.size() * gpn << " GPUs)";
    }

    if (rec) snap_clocks();
    comm.broadcast(root, kCandidateBytes);
    if (rec) emit_clock_spans("mpi_broadcast", "comm", {{"iteration", std::to_string(iter)}});

    // Host-side BitSplicing bookkeeping happens on every surviving rank
    // after the broadcast; charge it to the iteration.
    const double splice_time = static_cast<double>(tumor.genes()) * tumor.words_per_row() /
                               config_.host_word_rate;
    if (rec) snap_clocks();
    for (const std::uint32_t node : comm.alive_ranks()) comm.compute(node, splice_time);
    if (rec) emit_clock_spans("bit_splice", "host", {{"iteration", std::to_string(iter)}});

    telemetry.best = best;
    telemetry.iteration_time = comm.finish_time() - t_start;
    for (std::uint32_t r = 0; r < config_.nodes; ++r) {
      telemetry.rank_compute[r] = comm.compute_time(r) - compute_at_start[r];
      telemetry.rank_comm[r] = comm.comm_time(r) - comm_at_start[r];
    }

    if (rec) {
      rec->metrics.counter("cluster.iterations").add(1.0);
      rec->metrics.counter("cluster.candidate_bytes")
          .add(static_cast<double>(telemetry.candidate_bytes_total));
      rec->metrics.counter("cluster.combinations")
          .add(static_cast<double>(telemetry.combinations));
      rec->metrics.histogram("cluster.iteration_seconds").observe(telemetry.iteration_time);
      rec->metrics.gauge("cluster.alive_ranks")
          .set(static_cast<double>(comm.alive_ranks().size()));
    }

    if (any_drops) comm.set_message_faults({});
    result.iterations.push_back(std::move(telemetry));
    ++iter;
    return best;
  };

  EngineConfig engine;
  engine.hits = options.hits;
  engine.bit_splicing = options.bit_splicing;
  engine.max_iterations = options.max_iterations;
  engine.recorder = rec;
  if (rec) engine.sim_clock = [&comm] { return comm.finish_time(); };
  Engine session(data.tumor, data.normal, engine, evaluator);
  if (options.checkpoint_every > 0) {
    // Periodic auto-checkpoint (the §IV-A allocation-limit workflow): after
    // every checkpoint_every-th commit, before the next evaluation, every
    // rank streams its spliced matrix copy to the burst buffer, then the
    // fleet synchronizes. The snapshot is what a kJobAbort resumes from.
    while (session.step(options.checkpoint_every) == options.checkpoint_every) {
      CheckpointState snapshot = session.checkpoint();
      const double bytes =
          static_cast<double>(snapshot.tumor.genes()) * snapshot.tumor.words_per_row() * 8.0 +
          64.0 * static_cast<double>(snapshot.progress.iterations.size());
      const double write_time = bytes / config_.checkpoint_bytes_per_sec;
      if (rec) snap_clocks();
      for (const std::uint32_t node : comm.alive_ranks()) comm.compute(node, write_time);
      comm.barrier();
      result.checkpoint_time += write_time;
      ++result.checkpoints_taken;
      result.last_checkpoint = std::move(snapshot);
      last_checkpoint_mark = comm.finish_time();
      if (rec) {
        emit_clock_spans("checkpoint_write", "checkpoint");
        rec->metrics.counter("cluster.checkpoints").add(1.0);
        rec->metrics.histogram("cluster.checkpoint_seconds").observe(write_time);
      }
    }
  } else {
    session.run();
  }
  result.greedy = std::move(session).take_result();

  // The engine may call the evaluator one final time and then stop (best
  // covers nothing); that evaluation still costs time and stays recorded.
  result.fault_events = injector.take_records();
  result.total_time = config_.job_overhead() + result.schedule_time + abort_time;
  for (const auto& it : result.iterations) result.total_time += it.iteration_time;
  result.total_time += result.checkpoint_time;
  return result;
}

}  // namespace multihit
