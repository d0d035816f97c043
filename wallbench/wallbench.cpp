// Wall-clock benchmark driver: times real greedy solves and a served trace on
// this host and checks every answer against a reference run.
//
//   wallbench --workload sweep4|cover2|serve --seed N --seconds S --trace 0|1
//
// Workloads (why each exists):
//   sweep4  Full 4-hit greedy solves through the host sweep. Kernel-bound:
//           C(G,4) combinations per iteration, few iterations, so the scheme
//           kernel and bitops dominate.
//   cover2  A wide 2-hit cover through the same sweep: many genes, many
//           samples and dozens of planted pairs, so each solve commits many
//           short iterations. Per-iteration costs weigh in: sweep launch and
//           merge, BitSplicing and commit.
//   serve   Replays of a seeded request trace on a fresh JobService. Every
//           registry cancer type is requested twice: the first request runs
//           real Engine sessions interleaved by the scheduler, the repeat is
//           a result-cache hit. Serve and Engine overhead sit on top of the
//           single-threaded kernel evaluator.
//
// Sweeps run one worker, inline on the calling thread: this host's cores
// slow down independently as other tenants load them, and the slowest of
// several workers would set every sweep's time.
//
// A run generates its inputs from the seed, times that set-up several times
// (setup_s is the median), computes reference selections once, warms up with
// one untimed pass, then repeats whole passes over its input pool until
// --seconds have elapsed. Every task's selections are compared with the
// reference; a mismatch or a rejected request counts as failed. Each metric
// is the mean over the pool's inputs of that input's median, so inputs of
// different cost weigh the same in every run.
//
// --trace 0 reports the end-to-end metrics, measured with no tracing:
//   task_ms       wall time of one task (one solve; one trace replay)
//   combos_per_s  combinations answered per second: each answered request
//                 counts iterations x C(G, h) of its λ space, whether it was
//                 enumerated or served from the result cache
//   setup_s       time to generate the run's inputs
// --trace 1 runs the same tasks with spans timed around each layer call from
// this file (Evaluator, Engine::run, JobService::replay) plus the host
// profiler and counted bitops dispatch, and reports per-layer figures.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "bitmat/bitops.hpp"
#include "combinat/binomial.hpp"
#include "core/engine.hpp"
#include "core/hostsweep.hpp"
#include "core/session.hpp"
#include "data/generator.hpp"
#include "data/registry.hpp"
#include "obs/hostprof.hpp"
#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace multihit;
using Clock = std::chrono::steady_clock;
using Selections = std::vector<std::vector<std::uint32_t>>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Distinct, seed-derived stream for input `index` of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return seed * 0x9e3779b97f4a7c15ULL + index * 0xbf58476d1ce4e5b9ULL + 1;
}

/// What the traced run measured around one task's layer calls.
struct LayerSample {
  double evaluate_s = 0.0;     ///< wall inside Evaluator calls (maxF search)
  double engine_s = 0.0;       ///< Engine self time: splice + commit
  double outer_s = 0.0;        ///< task wall outside Engine stepping
  double kernel_combos = 0.0;  ///< λ-space combinations evaluated
  double bitops_calls = 0.0;   ///< dispatched bitops calls
  double sweep_wall_s = 0.0;   ///< Σ host-sweep wall (launch to merged result)
  double sweep_busy_s = 0.0;   ///< Σ worker time inside chunk evaluation
  double sweep_merge_s = 0.0;  ///< Σ candidate merge time
  double cache_hits = 0.0;
  double iterations = 0.0;     ///< greedy iterations committed

  /// Converts every duration by `factor` (to reference-speed seconds).
  void scale_times(double factor) {
    for (double* t : {&evaluate_s, &engine_s, &outer_s, &sweep_wall_s, &sweep_busy_s,
                      &sweep_merge_s}) {
      *t *= factor;
    }
  }
};

struct TaskResult {
  double wall_s = 0.0;         ///< the task's timed span
  std::uint64_t requests = 0;  ///< requests answered or refused by this task
  std::uint64_t failed = 0;    ///< wrong selections or refused requests
  double combos = 0.0;         ///< λ-space combinations answered
  LayerSample layers;
};

/// Gene rows and packed row widths of one input.
struct Shape {
  std::size_t genes = 0;
  std::size_t tumor_words = 0;
  std::size_t normal_words = 0;
};

std::size_t words_for(std::uint32_t samples) { return (samples + 63) / 64; }

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the run's inputs from the seed (the timed set-up).
  virtual void setup(std::uint64_t seed) = 0;
  /// Computes reference answers and anything else the checks need (untimed).
  virtual void prepare() = 0;
  /// Inputs in one pass; the driver runs task(0..pool()-1) per pass.
  virtual std::size_t pool() const = 0;
  virtual TaskResult task(std::size_t index, bool traced) = 0;
  /// Matrix shape of one input (sizes the speed probe and the ceiling).
  virtual Shape shape() const = 0;
};

/// popcount(a & b) over `words` words; the probe's counterpart of a
/// dispatched bitops kernel. Called through a pointer, as the library's
/// dispatch table is.
#if defined(__x86_64__)
__attribute__((target("avx2,bmi2"), noinline)) std::uint64_t probe_and_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t w = 0; w < words; w += 4) {
    const std::size_t rem = std::min<std::size_t>(4, words - w);
    const __m256i mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(rem)),
                                            _mm256_setr_epi64x(0, 1, 2, 3));
    const auto* pa = reinterpret_cast<const long long*>(a + w);
    const auto* pb = reinterpret_cast<const long long*>(b + w);
    const __m256i x =
        _mm256_and_si256(_mm256_maskload_epi64(pa, mask), _mm256_maskload_epi64(pb, mask));
    const __m256i c = _mm256_add_epi8(
        _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low)),
        _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16(x, 4), low)));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, _mm256_setzero_si256()));
  }
  return static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 0) + _mm256_extract_epi64(acc, 1) +
                                    _mm256_extract_epi64(acc, 2) + _mm256_extract_epi64(acc, 3));
}
#endif

__attribute__((noinline)) std::uint64_t probe_and_popcount_scalar(const std::uint64_t* a,
                                                                  const std::uint64_t* b,
                                                                  std::size_t words) {
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < words; ++w) count += std::popcount(a[w] & b[w]);
  return count;
}

using ProbeKernel = std::uint64_t (*)(const std::uint64_t*, const std::uint64_t*, std::size_t);

/// Machine-speed probe that shares no code with the library. This host's
/// cores slow down independently, by up to 2x for seconds at a time, as
/// other tenants load them, and each kind of code slows by its own factor,
/// so the probe is a small frozen replica of the enumeration kernels' inner
/// step over matrices of the workload's shape: stage the AND of two gene
/// rows, count it against every gene row of both matrices through a kernel
/// pointer, and score each pair with the F formula, keeping the best. It
/// runs on the core the whole run is pinned to. Every timed span is scaled
/// by the probes on either side of it; results read as seconds on a core
/// where one probe takes kReferenceSeconds.
class SpeedProbe {
 public:
  explicit SpeedProbe(const Shape& shape) : shape_(shape) {
    Rng rng(0x5eed);
    tumor_.resize(shape_.genes * shape_.tumor_words);
    normal_.resize(shape_.genes * shape_.normal_words);
    for (auto& w : tumor_) w = rng() & rng();
    for (auto& w : normal_) w = rng() & rng();
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) kernel_ = probe_and_popcount_avx2;
#endif
  }

  /// Wall seconds for one probe.
  double measure() {
    const std::size_t genes = shape_.genes;
    const std::size_t wt = shape_.tumor_words;
    const std::size_t wn = shape_.normal_words;
    // About the same number of scored pairs at any matrix shape.
    const std::size_t prefixes = kPairs / genes + 1;
    const double normal_total = static_cast<double>(64 * wn);
    const double samples_total = static_cast<double>(64 * (wt + wn));
    std::vector<std::uint64_t> staged_t(wt), staged_n(wn);
    double best = 0.0;
    const auto start = Clock::now();
    for (std::size_t p = 0; p < prefixes; ++p) {
      const std::size_t i = p % genes;
      const std::size_t j = (3 * p + 1) % genes;
      for (std::size_t w = 0; w < wt; ++w) staged_t[w] = tumor_[i * wt + w] & tumor_[j * wt + w];
      for (std::size_t w = 0; w < wn; ++w) staged_n[w] = normal_[i * wn + w] & normal_[j * wn + w];
      for (std::size_t l = 0; l < genes; ++l) {
        const std::uint64_t tp = kernel_(staged_t.data(), &tumor_[l * wt], wt);
        const std::uint64_t nh = kernel_(staged_n.data(), &normal_[l * wn], wn);
        const double f =
            (kAlpha * static_cast<double>(tp) + normal_total - static_cast<double>(nh)) /
            samples_total;
        if (f > best) best = f;
      }
    }
    const double elapsed = seconds_since(start);
    if (best < 0.0) std::cerr << "";  // keeps the probe work observable
    return elapsed;
  }

  /// Factor converting seconds measured between probes `before` and
  /// `after` into reference-speed seconds.
  static double scale(double before, double after) {
    return kReferenceSeconds / (0.5 * (before + after));
  }

 private:
  static constexpr std::size_t kPairs = 40000;
  static constexpr double kAlpha = 0.1;
  static constexpr double kReferenceSeconds = 1.0e-3;

  Shape shape_;
  std::vector<std::uint64_t> tumor_;
  std::vector<std::uint64_t> normal_;
  ProbeKernel kernel_ = probe_and_popcount_scalar;
};

/// Wraps an evaluator so each call's wall time accumulates into `sink`.
Evaluator timed(Evaluator inner, double* sink) {
  return [inner = std::move(inner), sink](const BitMatrix& tumor, const BitMatrix& normal,
                                          const FContext& ctx) {
    const auto start = Clock::now();
    EvalResult result = inner(tumor, normal, ctx);
    *sink += seconds_since(start);
    return result;
  };
}

// --------------------------------------------------------------- greedy solve

struct SolveParams {
  SyntheticSpec spec;    ///< seed is replaced per input
  std::size_t pool = 0;  ///< distinct datasets per run
};

class SolveWorkload final : public Workload {
 public:
  explicit SolveWorkload(SolveParams params) : params_(std::move(params)) {
    config_.hits = params_.spec.hits;
    sweep_.hits = params_.spec.hits;
    sweep_.threads = 1;
  }

  void setup(std::uint64_t seed) override {
    datasets_.clear();
    for (std::size_t i = 0; i < params_.pool; ++i) {
      SyntheticSpec spec = params_.spec;
      spec.seed = derive_seed(seed, i);
      datasets_.push_back(generate_dataset(spec));
    }
  }

  void prepare() override {
    references_.clear();
    for (const Dataset& data : datasets_) {
      references_.push_back(
          run_greedy(data.tumor, data.normal, config_, make_serial_evaluator(config_.hits))
              .combinations());
    }
  }

  std::size_t pool() const override { return datasets_.size(); }

  Shape shape() const override {
    return {params_.spec.genes, words_for(params_.spec.tumor_samples),
            words_for(params_.spec.normal_samples)};
  }

  TaskResult task(std::size_t index, bool traced) override {
    const Dataset& data = datasets_[index];
    TaskResult out;
    out.requests = 1;
    LayerSample& layers = out.layers;
    obs::HostProfiler profiler;
    HostSweepOptions sweep = sweep_;
    if (traced) sweep.profiler = &profiler;
    Evaluator evaluator = make_host_sweep_evaluator(sweep);
    if (traced) evaluator = timed(std::move(evaluator), &layers.evaluate_s);
    // The one sweep worker runs inline on this thread, so this thread's
    // counters see every dispatched bitops call.
    const bool counting_before = traced ? set_call_counting(true) : false;
    const BitopsCallCounts calls_before = thread_bitops_calls();

    const auto start = Clock::now();
    Engine engine(data.tumor, data.normal, config_, std::move(evaluator));
    const auto run_start = Clock::now();
    engine.run();
    const auto end = Clock::now();
    out.wall_s = std::chrono::duration<double>(end - start).count();
    const GreedyResult& result = engine.result();
    if (result.combinations() != references_[index]) out.failed = 1;
    out.combos = static_cast<double>(result.iterations.size()) *
                 static_cast<double>(binomial(data.genes(), config_.hits));
    layers.iterations = static_cast<double>(result.iterations.size());
    if (!traced) return out;

    set_call_counting(counting_before);
    const double run_s = std::chrono::duration<double>(end - run_start).count();
    layers.engine_s = run_s - layers.evaluate_s;
    layers.outer_s = out.wall_s - run_s;
    layers.kernel_combos = out.combos;
    layers.bitops_calls = static_cast<double>((thread_bitops_calls() - calls_before).total());
    for (const obs::HostSweepStat& stat : profiler.profile().sweeps) {
      layers.sweep_wall_s += stat.wall_seconds;
      layers.sweep_merge_s += stat.merge_seconds;
    }
    layers.sweep_busy_s = profiler.profile().eval_seconds;
    return out;
  }

 private:
  SolveParams params_;
  EngineConfig config_;
  HostSweepOptions sweep_;
  std::vector<Dataset> datasets_;
  std::vector<Selections> references_;
};

// ---------------------------------------------------------------------- serve

/// A served cancer type's standalone answer.
struct ServeReference {
  Selections selections;
  std::uint32_t hits = 0;
  double combos = 0.0;  ///< iterations x C(G, h)
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload() {
    options_.queue_capacity = 64;
    options_.tenant_quota = 64;
  }

  void setup(std::uint64_t seed) override {
    // Every registry type twice: a seeded shuffle in the first wave, another
    // in a second wave arriving long after the first has drained, so the
    // work per replay is the same for every seed (each type computed once,
    // its repeat served from the result cache) while order, tenants and
    // interleaving vary.
    std::vector<std::string> codes;
    for (const CancerType& type : cancer_registry()) codes.push_back(type.code);
    traces_.clear();
    for (std::size_t i = 0; i < kTraces; ++i) {
      serve::TraceSpec spec;
      spec.jobs = static_cast<std::uint32_t>(2 * codes.size());
      spec.seed = derive_seed(seed, i);
      spec.mean_interarrival = 2.0;
      serve::RequestTrace trace = serve::generate_trace(spec);
      Rng rng(spec.seed ^ 0x5eedULL);
      for (std::size_t wave = 0; wave < 2; ++wave) {
        std::vector<std::string> order = codes;
        rng.shuffle(order);
        for (std::size_t k = 0; k < order.size(); ++k) {
          serve::Request& r = trace.requests[wave * order.size() + k];
          r.cancer = order[k];
          if (wave == 1) r.arrival += kSecondWaveDelay;
        }
      }
      traces_.push_back(std::move(trace));
    }
    datasets_.clear();
    for (const CancerType& type : cancer_registry()) {
      datasets_.emplace(type.code, generate_dataset(serve::CancerCache::serve_spec(type)));
    }
  }

  void prepare() override {
    references_.clear();
    for (const CancerType& type : cancer_registry()) {
      const Dataset& data = datasets_.at(type.code);
      EngineConfig config;
      config.hits = type.hits;
      ServeReference ref;
      ref.hits = type.hits;
      ref.selections =
          run_greedy(data.tumor, data.normal, config, make_serial_evaluator(type.hits))
              .combinations();
      ref.combos = static_cast<double>(ref.selections.size()) *
                   static_cast<double>(binomial(data.genes(), type.hits));
      references_.emplace(type.code, std::move(ref));
    }
  }

  std::size_t pool() const override { return traces_.size(); }

  Shape shape() const override {
    // Most served types are 4-hit; size the probe to their matrices.
    const SyntheticSpec spec = serve::CancerCache::serve_spec(four_plus_hit_types().front());
    return {spec.genes, words_for(spec.tumor_samples), words_for(spec.normal_samples)};
  }

  TaskResult task(std::size_t index, bool traced) override {
    TaskResult out;
    const bool counting_before = traced ? set_call_counting(true) : false;
    const BitopsCallCounts calls_before = thread_bitops_calls();
    const auto start = Clock::now();
    serve::JobService service(options_);
    const serve::ServeResult result = service.replay(traces_[index]);
    out.wall_s = seconds_since(start);
    const BitopsCallCounts calls = thread_bitops_calls() - calls_before;
    if (traced) set_call_counting(counting_before);

    LayerSample& layers = out.layers;
    for (const serve::JobRecord& job : result.jobs) {
      ++out.requests;
      const auto ref = references_.find(job.cancer);
      if (job.outcome != serve::JobOutcome::kCompleted || ref == references_.end() ||
          job.hits != ref->second.hits || job.selections != ref->second.selections) {
        ++out.failed;
        continue;
      }
      out.combos += ref->second.combos;
      if (!traced || job.cache_hit) continue;
      // The service interleaves its Engine sessions on one thread, so the
      // evaluate/engine split comes from rerunning each computed job bare,
      // right after the replay; the rest of the replay is serve overhead.
      const Dataset& data = datasets_.at(job.cancer);
      EngineConfig config;
      config.hits = job.hits;
      double evaluate_s = 0.0;
      Engine bare(data.tumor, data.normal, config,
                  timed(make_kernel_evaluator(job.hits), &evaluate_s));
      const auto bare_start = Clock::now();
      bare.run();
      layers.engine_s += seconds_since(bare_start) - evaluate_s;
      layers.evaluate_s += evaluate_s;
      layers.kernel_combos += ref->second.combos;
      layers.iterations += job.iterations;
    }
    layers.outer_s = out.wall_s - layers.evaluate_s - layers.engine_s;
    layers.bitops_calls = static_cast<double>(calls.total());
    layers.cache_hits = result.cache_hits;
    return out;
  }

 private:
  static constexpr std::size_t kTraces = 2;
  static constexpr double kSecondWaveDelay = 1.0e5;  ///< simulated s

  serve::ServiceOptions options_;
  std::vector<serve::RequestTrace> traces_;
  std::map<std::string, Dataset> datasets_;
  std::map<std::string, ServeReference> references_;
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  // Pools of six datasets: a solve's cost varies from dataset to dataset with
  // the order in which BitSplicing drops covered samples, and six average
  // that out across seeds.
  if (name == "sweep4") {
    SolveParams p;
    p.spec.genes = 72;
    p.spec.tumor_samples = 120;
    p.spec.normal_samples = 80;
    p.spec.hits = 4;
    p.spec.num_combinations = 5;
    p.spec.background_rate = 0.012;
    p.pool = 6;
    return std::make_unique<SolveWorkload>(p);
  }
  if (name == "cover2") {
    SolveParams p;
    p.spec.genes = 300;
    p.spec.tumor_samples = 1600;
    p.spec.normal_samples = 1000;
    p.spec.hits = 2;
    p.spec.num_combinations = 60;
    p.spec.background_rate = 0.01;
    p.pool = 6;
    return std::make_unique<SolveWorkload>(p);
  }
  if (name == "serve") return std::make_unique<ServeWorkload>();
  return nullptr;
}

// ------------------------------------------------------------------- ceiling

/// Seconds for one combination at the bitops ceiling: one two-row
/// AND+popcount on L1-resident rows per matrix (tumor and normal), the
/// kernel's innermost step after prefix staging, without the enumeration.
double bitops_seconds_per_combo_ceiling(const Shape& shape) {
  Rng rng(7);
  const auto row = [&](std::size_t words) {
    std::vector<std::uint64_t> r(words);
    for (auto& w : r) w = rng();
    return r;
  };
  const std::vector<std::uint64_t> ta = row(shape.tumor_words), tb = row(shape.tumor_words);
  const std::vector<std::uint64_t> na = row(shape.normal_words), nb = row(shape.normal_words);
  std::vector<double> samples;
  std::uint64_t sink = 0;
  constexpr std::uint64_t kCalls = 1u << 18;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      sink += and_popcount(ta, tb) + and_popcount(na, nb);
    }
    samples.push_back(seconds_since(start) / static_cast<double>(kCalls));
  }
  if (sink == 42) std::cerr << "";  // keeps the loop observable
  return median(samples);
}

// ---------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = end && *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have[2] = end && *end == '\0' && args.seconds > 0.0 && args.seconds <= 60.0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) return std::nullopt;
  return args;
}

obs::JsonValue metric(double value, const char* unit) {
  obs::JsonValue m = obs::JsonValue::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload = args ? make_workload(args->workload) : nullptr;
  if (!workload) {
    std::cerr << "usage: wallbench --workload sweep4|cover2|serve --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }

#if defined(__linux__)
  // One core for the whole run, so the probe reads the speed of the core the
  // work runs on.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
#endif
  const Shape shape = workload->shape();
  SpeedProbe probe(shape);
  probe.measure();

  // Set-up: at least five repetitions and at least a quarter second of them,
  // so sub-millisecond set-ups still yield a steady median.
  std::vector<double> setups, raw_setups;
  const auto setup_start = Clock::now();
  while (setups.size() < 5 || (seconds_since(setup_start) < 0.25 && setups.size() < 1000)) {
    const double before = probe.measure();
    const auto start = Clock::now();
    workload->setup(args->seed);
    raw_setups.push_back(seconds_since(start));
    setups.push_back(raw_setups.back() * SpeedProbe::scale(before, probe.measure()));
  }
  workload->prepare();

  // Whole passes over the input pool, so every run measures the same mix.
  // The first pass warms caches, lazy dispatch resolution and allocators and
  // is checked but not timed.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> raw_walls;
  std::vector<std::vector<TaskResult>> samples(workload->pool());  // per input
  const auto pass = [&](bool traced, bool keep) {
    for (std::size_t i = 0; i < workload->pool(); ++i) {
      const double before = probe.measure();
      TaskResult r = workload->task(i, traced);
      const double scale = SpeedProbe::scale(before, probe.measure());
      attempted += r.requests;
      failed += r.failed;
      if (!keep) continue;
      raw_walls.push_back(r.wall_s);
      r.wall_s *= scale;
      r.layers.scale_times(scale);
      samples[i].push_back(r);
    }
  };
  pass(args->trace, false);
  const auto measure_start = Clock::now();
  while (seconds_since(measure_start) < args->seconds) pass(args->trace, true);

  const auto pool_mean = [&](auto field) {
    double sum = 0.0;
    for (const std::vector<TaskResult>& runs : samples) {
      std::vector<double> values;
      for (const TaskResult& r : runs) values.push_back(field(r));
      sum += median(values);
    }
    return sum / static_cast<double>(samples.size());
  };
  const auto layer = [&](double LayerSample::*field) {
    return pool_mean([field](const TaskResult& r) { return r.layers.*field; });
  };
  const double wall_s = pool_mean([](const TaskResult& r) { return r.wall_s; });

  obs::JsonValue metrics = obs::JsonValue::object();
  if (!args->trace) {
    const double combos = pool_mean([](const TaskResult& r) { return r.combos; });
    metrics.set("task_ms", metric(wall_s * 1e3, "ms"));
    metrics.set("combos_per_s", metric(combos / wall_s, "1/s"));
    metrics.set("setup_s", metric(median(setups), "s"));
  } else {
    const double combos = layer(&LayerSample::kernel_combos);
    const double sweep_wall = layer(&LayerSample::sweep_wall_s);
    metrics.set("traced_task_ms", metric(wall_s * 1e3, "ms"));
    metrics.set("evaluate_ms", metric(layer(&LayerSample::evaluate_s) * 1e3, "ms"));
    metrics.set("engine_ms", metric(layer(&LayerSample::engine_s) * 1e3, "ms"));
    metrics.set("outer_ms", metric(layer(&LayerSample::outer_s) * 1e3, "ms"));
    metrics.set("kernel_ns_per_combo",
                metric(layer(&LayerSample::evaluate_s) * 1e9 / combos, "ns"));
    metrics.set("bitops_calls_per_combo",
                metric(layer(&LayerSample::bitops_calls) / combos, "count"));
    const double before = probe.measure();
    const double ceiling = bitops_seconds_per_combo_ceiling(shape);
    metrics.set("bitops_only_ns_per_combo",
                metric(ceiling * SpeedProbe::scale(before, probe.measure()) * 1e9, "ns"));
    metrics.set("sweep_idle_pct",
                metric(sweep_wall > 0.0
                           ? 100.0 * (1.0 - layer(&LayerSample::sweep_busy_s) / sweep_wall)
                           : 0.0,
                       "%"));
    metrics.set("sweep_merge_pct",
                metric(sweep_wall > 0.0 ? 100.0 * layer(&LayerSample::sweep_merge_s) / sweep_wall
                                        : 0.0,
                       "%"));
    metrics.set("cache_hits", metric(layer(&LayerSample::cache_hits), "count"));
    metrics.set("greedy_iterations", metric(layer(&LayerSample::iterations), "count"));
  }

  obs::JsonValue out = obs::JsonValue::object();
  out.set("correct", failed == 0);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  std::cout << "wallbench " << args->workload << ": " << raw_walls.size()
            << " tasks measured; unscaled medians: task " << median(raw_walls) * 1e3
            << " ms, set-up " << median(raw_setups) << " s\n"
            << out.dump() << "\n";
  return 0;
}
