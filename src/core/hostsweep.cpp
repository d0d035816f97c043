#include "core/hostsweep.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bitmat/bitops.hpp"
#include "core/workqueue.hpp"
#include "obs/hostprof.hpp"

namespace multihit {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// One per-chunk winner, tagged with the chunk's begin λ for the
/// deterministic index-ordered fold.
struct Candidate {
  std::uint64_t chunk_begin = 0;
  EvalResult result;
};

/// Everything one worker produces. Workers fill a stack copy and store it
/// once when they drain the queue: adjacent vector elements share cache
/// lines, and per-chunk writes to them would bounce those lines between
/// workers on every (often tiny, once pruned) chunk.
struct WorkerOutput {
  std::vector<Candidate> candidates;
  KernelCounts counts;
  std::uint64_t chunks = 0;
  std::uint64_t skipped_chunks = 0;  ///< of those, skipped on carried bounds
};

}  // namespace

EvalResult host_sweep_find_best(const BitMatrix& tumor, const BitMatrix& normal,
                                const FContext& ctx, const HostSweepOptions& options,
                                HostSweepTelemetry* telemetry) {
  if (tumor.genes() != normal.genes()) {
    throw std::invalid_argument("host sweep: tumor/normal gene counts differ");
  }
  const Scheme scheme{options.hits, options.hits - 1};
  const std::uint64_t lambda_end = scheme_threads(scheme, tumor.genes());

  std::uint32_t workers = options.threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t requested = workers;

  // One floor for every chunk: each chunk's own incumbent starts empty, and
  // the floor lets it cut from its first prefix on. The Engine's carried
  // bounds, when they apply, let a chunk skip whole against it.
  const double floor = greedy_floor(tumor, normal, ctx, options.hits);
  CarriedBounds* carried =
      ctx.carried != nullptr && ctx.carried->begin(tumor, ctx, options.hits) ? ctx.carried
                                                                             : nullptr;
  // One worker takes the whole space as one chunk, so its incumbent carries
  // across it. W workers get about kChunksPerWorker chunks each, of whole
  // blocks (evaluate_range requires them): ⌈λ / (kChunksPerWorker·W·block)⌉.
  const std::uint64_t block = carried != nullptr ? std::uint64_t{1} << carried->block_shift()
                                                 : CarriedBounds::kBlockThreads;
  const std::uint64_t unit = kChunksPerWorker * workers * block;  // one block per chunk
  ChunkQueue queue(lambda_end, workers == 1 ? lambda_end : (lambda_end + unit - 1) / unit * block);
  // At most one worker per chunk; at least one, which drains an empty space.
  workers = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(workers, std::max<std::uint64_t>(1, queue.chunk_count())));

  obs::HostProfiler* profiler = options.profiler;
  // A profiled sweep always counts bitops calls. Swapping in the counting
  // dispatch tables is one pointer store; the per-call cost only exists while
  // a profiled sweep runs, and the previous state is restored on the way out
  // so unprofiled callers never pay.
  const bool counting_before = profiler != nullptr ? set_call_counting(true) : false;

  std::vector<WorkerOutput> outputs(workers);
  std::vector<obs::HostWorkerSample> samples(profiler != nullptr ? workers : 0);
  std::vector<Clock::time_point> finish_at(profiler != nullptr ? workers : 0);

  const auto worker_body = [&](std::uint32_t id) {
    WorkerOutput out;
    // Under a profiler, two steady_clock reads per chunk (claim edge,
    // evaluate edge) feed the claim-latency histogram and the busy/idle
    // split; everything that decides the selection is untouched.
    obs::HostWorkerSample sample;
    const BitopsCallCounts calls_before = thread_bitops_calls();
    Clock::time_point mark, claimed_at;
    if (profiler != nullptr) mark = Clock::now();
    std::uint64_t begin = 0, end = 0;
    for (;;) {
      const bool claimed = queue.next(&begin, &end);
      if (claimed && carried != nullptr && carried->skips(begin, end, floor, ctx)) {
        // A chunk its carried bounds rule out costs no kernel call and no
        // clock read; the profiler tallies it apart from timed claims.
        const std::uint64_t work = scheme_range_work(scheme, tumor.genes(), begin, end);
        out.counts.combinations += work;
        out.counts.pruned += work;
        out.counts.threads_skipped += end - begin;
        ++out.chunks;
        ++out.skipped_chunks;
        continue;
      }
      if (profiler != nullptr) {
        claimed_at = Clock::now();
        const double claim_latency = seconds_between(mark, claimed_at);
        sample.claim_seconds += claim_latency;
        ++sample.claim_histogram[obs::claim_bucket(claim_latency)];
      }
      if (!claimed) break;
      const EvalResult best =
          evaluate_range(tumor, normal, ctx, scheme, begin, end, floor, &out.counts, carried);
      if (profiler != nullptr) {
        mark = Clock::now();
        sample.eval_seconds += seconds_between(claimed_at, mark);
      }
      ++out.chunks;
      if (best.valid) out.candidates.push_back({begin, best});
    }

    if (profiler != nullptr) {
      // The one failed poll every worker's drain ends on.
      sample.empty_polls = 1;
      finish_at[id] = claimed_at;
      const BitopsCallCounts delta = thread_bitops_calls() - calls_before;
      sample.calls.and2 = delta.and2;
      sample.calls.and_rows = delta.and_rows;
      sample.chunks = out.chunks;
      sample.skipped_chunks = out.skipped_chunks;
      sample.candidates = static_cast<std::uint64_t>(out.candidates.size());
      sample.combinations = out.counts.combinations;
      samples[id] = sample;
    }
    outputs[id] = std::move(out);
  };

  Clock::time_point sweep_start, joined_at;
  if (profiler != nullptr) {
    sweep_start = Clock::now();
    obs::HostSweepSetup setup;
    setup.workers = workers;
    setup.chunk_size = queue.chunk_size();
    setup.chunk_count = queue.chunk_count();
    setup.lambda_end = lambda_end;
    setup.hits = options.hits;
    setup.scheme = scheme_name(scheme);
    setup.backend = backend_name(active_backend());
    profiler->begin_sweep(setup);
  }

  if (workers <= 1) {
    worker_body(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t id = 0; id < workers; ++id) pool.emplace_back(worker_body, id);
    for (std::thread& t : pool) t.join();
  }
  if (profiler != nullptr) joined_at = Clock::now();
  if (carried != nullptr) carried->finish();

  // Deterministic merge: concatenate per-worker candidate lists, order by
  // chunk-begin λ (chunks are disjoint, so the key is unique), fold with
  // merge_results. The sort makes the fold order independent of which worker
  // happened to grab which chunk; merge_results' total order already makes
  // the *result* order-independent — both layers are pinned by tests.
  std::vector<Candidate> merged;
  for (const WorkerOutput& out : outputs) {
    merged.insert(merged.end(), out.candidates.begin(), out.candidates.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Candidate& a, const Candidate& b) { return a.chunk_begin < b.chunk_begin; });
  EvalResult best;
  for (const Candidate& candidate : merged) best = merge_results(best, candidate.result);

  if (profiler != nullptr) {
    const Clock::time_point merged_at = Clock::now();
    set_call_counting(counting_before);
    for (std::uint32_t id = 0; id < workers; ++id) {
      // Tail idle: the gap between this worker draining the queue and the
      // last worker joining — the end-of-sweep load-imbalance cost.
      samples[id].tail_idle_seconds = seconds_between(finish_at[id], joined_at);
      profiler->record_worker(id, samples[id]);
    }
    obs::HostSweepClose close;
    close.wall_seconds = seconds_between(sweep_start, merged_at);
    close.merge_seconds = seconds_between(joined_at, merged_at);
    close.polls = queue.polls();
    profiler->end_sweep(close);
  }

  if (telemetry != nullptr) {
    telemetry->threads = workers;
    telemetry->threads_requested = requested;
    telemetry->chunk_size = queue.chunk_size();
    telemetry->candidates = static_cast<std::uint64_t>(merged.size());
    telemetry->chunks = 0;
    telemetry->counts = {};
    for (const WorkerOutput& out : outputs) {
      telemetry->chunks += out.chunks;
      telemetry->counts += out.counts;
    }
  }
  return best;
}

Evaluator make_host_sweep_evaluator(HostSweepOptions options,
                                    HostSweepTelemetry* telemetry_sink) {
  return [options, telemetry_sink](const BitMatrix& tumor, const BitMatrix& normal,
                                   const FContext& ctx) {
    HostSweepTelemetry sweep;
    const EvalResult best = host_sweep_find_best(tumor, normal, ctx, options,
                                                 telemetry_sink ? &sweep : nullptr);
    if (telemetry_sink) *telemetry_sink += sweep;
    return best;
  };
}

}  // namespace multihit
