#include "core/hostsweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bitmat/bitops.hpp"
#include "core/workqueue.hpp"
#include "obs/hostprof.hpp"

namespace multihit {

namespace {

using Clock = obs::HostClock;

/// Everything one worker produces. Workers fill a stack copy and store it
/// once when they drain the queue: adjacent vector elements share cache
/// lines, and per-chunk writes to them would bounce those lines between
/// workers on every (often tiny, once pruned) chunk.
struct WorkerOutput {
  EvalResult best;  ///< merge_results over the worker's chunk bests
  KernelCounts counts;
  std::uint64_t chunks = 0;
  std::uint64_t skipped_chunks = 0;  ///< of those, skipped on carried bounds
  std::uint64_t candidates = 0;      ///< evaluated chunks with a valid best
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
  // Sized here so a worker's per-chunk record never allocates.
  for (obs::HostWorkerSample& sample : samples) sample.evaluated.reserve(queue.chunk_count());

  const auto worker_body = [&](std::uint32_t id) {
    WorkerOutput out;
    // Under a profiler, two steady_clock reads per evaluated chunk (claimed,
    // evaluated) become its claim and evaluate spans; everything that
    // decides the selection is untouched.
    obs::HostWorkerSample sample;
    if (profiler != nullptr) sample = std::move(samples[id]);
    const BitopsCallCounts calls_before = thread_bitops_calls();
    if (profiler != nullptr) sample.started = Clock::now();
    std::uint64_t begin = 0, end = 0;
    while (queue.next(&begin, &end)) {
      ++out.chunks;
      if (carried != nullptr && carried->skips(begin, end, floor, ctx)) {
        // A chunk its carried bounds rule out costs no kernel call and no
        // clock read.
        const std::uint64_t work = scheme_range_work(scheme, tumor.genes(), begin, end);
        out.counts.combinations += work;
        out.counts.pruned += work;
        out.counts.threads_skipped += end - begin;
        ++out.skipped_chunks;
        continue;
      }
      Clock::time_point claimed_at;
      if (profiler != nullptr) claimed_at = Clock::now();
      const EvalResult best =
          evaluate_range(tumor, normal, ctx, scheme, begin, end, floor, &out.counts, carried);
      if (profiler != nullptr) sample.evaluated.emplace_back(claimed_at, Clock::now());
      if (best.valid) {
        ++out.candidates;
        out.best = merge_results(out.best, best);
      }
    }

    if (profiler != nullptr) {
      const BitopsCallCounts delta = thread_bitops_calls() - calls_before;
      sample.and2_calls = delta.and2;
      sample.and_rows_calls = delta.and_rows;
      sample.chunks = out.chunks;
      sample.skipped_chunks = out.skipped_chunks;
      sample.candidates = out.candidates;
      sample.combinations = out.counts.combinations;
      samples[id] = std::move(sample);
    }
    outputs[id] = out;
  };

  if (profiler != nullptr) {
    obs::HostSweepSetup setup;
    setup.workers = workers;
    setup.chunk_size = queue.chunk_size();
    setup.lambda_end = lambda_end;
    setup.hits = options.hits;
    setup.scheme = scheme_name(scheme);
    setup.backend = backend_name(active_backend());
    setup.started = Clock::now();
    profiler->begin_sweep(std::move(setup));
  }

  if (workers <= 1) {
    worker_body(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t id = 0; id < workers; ++id) pool.emplace_back(worker_body, id);
    for (std::thread& t : pool) t.join();
  }
  obs::HostSweepClose close;
  if (profiler != nullptr) close.joined = Clock::now();
  if (carried != nullptr) carried->finish();

  // merge_results is associative and commutative (core/result.hpp), so
  // folding the per-worker bests in slot order selects the same winner
  // whichever worker evaluated which chunk.
  EvalResult best;
  for (const WorkerOutput& out : outputs) best = merge_results(best, out.best);

  if (profiler != nullptr) {
    close.merged = Clock::now();
    close.polls = queue.polls();
    set_call_counting(counting_before);
    for (std::uint32_t id = 0; id < workers; ++id) profiler->record_worker(id, samples[id]);
    profiler->end_sweep(close);
  }

  if (telemetry != nullptr) {
    telemetry->threads = workers;
    telemetry->threads_requested = requested;
    telemetry->chunk_size = queue.chunk_size();
    telemetry->chunks = 0;
    telemetry->candidates = 0;
    telemetry->counts = {};
    for (const WorkerOutput& out : outputs) {
      telemetry->chunks += out.chunks;
      telemetry->candidates += out.candidates;
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
