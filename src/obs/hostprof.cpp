// Host-sweep profiler: collection, the multihit.hostprof.v1 renderer, its
// exact inverse, the deterministic projection, consistency crosschecks, and
// the folded flamegraph export. Rendering is a pure function of the stored
// HostProfile fields so parse -> re-render is byte-identical.

#include "obs/hostprof.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "obs/schema.hpp"

namespace multihit::obs {

namespace {

// The fixed op order every calls table uses — report sections, text output,
// and the backend attribution all iterate this one list.
struct OpField {
  const char* name;
  std::uint64_t HostBitopsCalls::* member;
};
constexpr OpField kOpFields[] = {
    {"and2", &HostBitopsCalls::and2},
    {"and_rows", &HostBitopsCalls::and_rows},
};

JsonValue calls_json(const HostBitopsCalls& calls) {
  JsonValue out = JsonValue::object();
  for (const OpField& op : kOpFields) out.set(op.name, JsonValue(calls.*op.member));
  out.set("total", JsonValue(calls.total()));
  return out;
}

HostBitopsCalls calls_from_json(const JsonFields& obj) {
  HostBitopsCalls calls;
  for (const OpField& op : kOpFields) calls.*op.member = obj.u64(op.name);
  return calls;
}

}  // namespace

std::size_t claim_bucket(double seconds) noexcept {
  for (std::size_t i = 0; i < kClaimBucketBounds.size(); ++i) {
    if (seconds <= kClaimBucketBounds[i]) return i;
  }
  return kClaimBuckets - 1;
}

// ---------------------------------------------------------------- collection

void HostProfiler::begin_sweep(const HostSweepSetup& setup) {
  if (in_sweep_) throw std::logic_error("HostProfiler: begin_sweep with a sweep already open");
  in_sweep_ = true;
  current_ = HostSweepStat{};
  current_.index = static_cast<std::uint32_t>(profile_.sweeps.size());
  current_.workers = setup.workers;
  current_.chunk_size = setup.chunk_size;
  current_.chunk_count = setup.chunk_count;
  current_.lambda_end = setup.lambda_end;

  if (profile_.sweeps.empty() && profile_.workers == 0) {
    profile_.hits = setup.hits;
    profile_.scheme = setup.scheme;
    profile_.backend = setup.backend;
    // Every profiled sweep swaps in the counting bitops dispatch.
    profile_.bitops_counted = true;
    profile_.chunk_size = setup.chunk_size;
    profile_.lambda_end = setup.lambda_end;
  }
  if (setup.workers > profile_.workers) profile_.workers = setup.workers;
  while (profile_.worker_stats.size() < setup.workers) {
    HostWorkerStat stat;
    stat.worker = static_cast<std::uint32_t>(profile_.worker_stats.size());
    profile_.worker_stats.push_back(stat);
  }
}

void HostProfiler::record_worker(std::uint32_t worker, const HostWorkerSample& sample) {
  if (!in_sweep_) throw std::logic_error("HostProfiler: record_worker outside a sweep");
  if (worker >= profile_.worker_stats.size()) {
    throw std::logic_error("HostProfiler: record_worker beyond the sweep's worker count");
  }
  HostWorkerStat& stat = profile_.worker_stats[worker];
  stat.sweeps += 1;
  stat.chunks += sample.chunks;
  stat.skipped_chunks += sample.skipped_chunks;
  stat.candidates += sample.candidates;
  stat.combinations += sample.combinations;
  stat.empty_polls += sample.empty_polls;
  stat.calls += sample.calls;
  stat.claim_seconds += sample.claim_seconds;
  stat.eval_seconds += sample.eval_seconds;
  stat.tail_idle_seconds += sample.tail_idle_seconds;
  for (std::size_t i = 0; i < kClaimBuckets; ++i) {
    stat.claim_histogram[i] += sample.claim_histogram[i];
  }

  current_.chunks += sample.chunks;
  current_.candidates += sample.candidates;
  current_.combinations += sample.combinations;

  profile_.total_chunks += sample.chunks;
  profile_.total_skipped_chunks += sample.skipped_chunks;
  profile_.total_claims += sample.chunks;  // every successful poll is one chunk
  profile_.total_empty_polls += sample.empty_polls;
  profile_.total_candidates += sample.candidates;
  profile_.total_combinations += sample.combinations;
  profile_.total_calls += sample.calls;
  profile_.eval_seconds += sample.eval_seconds;
  profile_.claim_seconds += sample.claim_seconds;
  profile_.tail_idle_seconds += sample.tail_idle_seconds;
}

void HostProfiler::end_sweep(const HostSweepClose& close) {
  if (!in_sweep_) throw std::logic_error("HostProfiler: end_sweep without begin_sweep");
  in_sweep_ = false;
  current_.wall_seconds = close.wall_seconds;
  current_.merge_seconds = close.merge_seconds;
  current_.polls = close.polls;
  profile_.wall_seconds += close.wall_seconds;
  profile_.merge_seconds += close.merge_seconds;
  profile_.sweeps.push_back(current_);
}

// ----------------------------------------------------------------- rendering

namespace {

/// Per-worker imbalance over one wall-clock quantity, in the analyze layer's
/// PhaseStat shape (lanes = worker slots, straggler_lane = slot index).
PhaseStat hostprof_imbalance(const HostProfile& profile, const std::string& phase) {
  PhaseStat stat;
  stat.phase = phase;
  if (phase == "evaluate") {
    stat.category = "compute";
  } else if (phase == "claim") {
    stat.category = "queue";
  } else if (phase == "tail_idle") {
    stat.category = "idle";
  } else {
    throw std::logic_error("hostprof_imbalance: unknown phase " + phase);
  }

  const auto value_of = [&](const HostWorkerStat& w) {
    if (phase == "evaluate") return w.eval_seconds;
    if (phase == "claim") return w.claim_seconds;
    return w.tail_idle_seconds;
  };

  stat.lanes = static_cast<std::uint32_t>(profile.worker_stats.size());
  if (stat.lanes == 0) return stat;
  for (const HostWorkerStat& worker : profile.worker_stats) {
    const double value = value_of(worker);
    stat.total_seconds += value;
    if (value > stat.max_seconds) {
      stat.max_seconds = value;
      stat.straggler_lane = worker.worker;
    }
  }
  stat.mean_seconds = stat.total_seconds / stat.lanes;
  double variance = 0.0;
  for (const HostWorkerStat& worker : profile.worker_stats) {
    const double delta = value_of(worker) - stat.mean_seconds;
    variance += delta * delta;
  }
  stat.stddev_seconds = std::sqrt(variance / stat.lanes);
  stat.max_over_mean = stat.mean_seconds > 0.0 ? stat.max_seconds / stat.mean_seconds : 0.0;
  return stat;
}

JsonValue workload_json(const HostProfile& profile) {
  JsonValue workload = JsonValue::object();
  workload.set("hits", JsonValue(static_cast<std::uint64_t>(profile.hits)));
  workload.set("scheme", JsonValue(profile.scheme));
  workload.set("lambda_end", JsonValue(profile.lambda_end));
  workload.set("chunk_size", JsonValue(profile.chunk_size));
  workload.set("workers", JsonValue(static_cast<std::uint64_t>(profile.workers)));
  workload.set("sweeps", JsonValue(static_cast<std::uint64_t>(profile.sweeps.size())));
  workload.set("bitops_counted", JsonValue(profile.bitops_counted));
  return workload;
}

JsonValue totals_json(const HostProfile& profile) {
  JsonValue totals = JsonValue::object();
  totals.set("chunks", JsonValue(profile.total_chunks));
  totals.set("skipped_chunks", JsonValue(profile.total_skipped_chunks));
  totals.set("claims", JsonValue(profile.total_claims));
  totals.set("empty_polls", JsonValue(profile.total_empty_polls));
  totals.set("candidates", JsonValue(profile.total_candidates));
  totals.set("combinations", JsonValue(profile.total_combinations));
  totals.set("bitops_calls", calls_json(profile.total_calls));
  return totals;
}

void set_phase_json(JsonValue& array, const PhaseStat& stat) {
  // Mirrors the phase-entry shape analysis_report emits (report.cpp) so
  // downstream consumers read one imbalance format.
  JsonValue entry = JsonValue::object();
  entry.set("phase", JsonValue(stat.phase));
  entry.set("category", JsonValue(stat.category));
  entry.set("total_seconds", JsonValue(stat.total_seconds));
  entry.set("mean_seconds", JsonValue(stat.mean_seconds));
  entry.set("max_seconds", JsonValue(stat.max_seconds));
  entry.set("stddev_seconds", JsonValue(stat.stddev_seconds));
  entry.set("max_over_mean", JsonValue(stat.max_over_mean));
  entry.set("lanes", JsonValue(static_cast<double>(stat.lanes)));
  entry.set("straggler_lane", JsonValue(static_cast<double>(stat.straggler_lane)));
  array.push_back(std::move(entry));
}

}  // namespace

JsonValue hostprof_report(const HostProfile& profile) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(kHostprofSchema));
  doc.set("workload", workload_json(profile));
  doc.set("totals", totals_json(profile));

  // Backend attribution: which dispatched ops carried the sweep. The name is
  // wall-clock-adjacent context (it varies run to run with MULTIHIT_BITOPS),
  // so it lives outside the deterministic projection; the call *counts* it
  // attributes are dispatch-level and identical across backends.
  JsonValue backend = JsonValue::object();
  backend.set("name", JsonValue(profile.backend));
  const std::uint64_t total_calls = profile.total_calls.total();
  backend.set("calls_per_combination",
              JsonValue(profile.total_combinations > 0
                            ? static_cast<double>(total_calls) /
                                  static_cast<double>(profile.total_combinations)
                            : 0.0));
  JsonValue attribution = JsonValue::array();
  for (const OpField& op : kOpFields) {
    const std::uint64_t calls = profile.total_calls.*op.member;
    JsonValue entry = JsonValue::object();
    entry.set("op", JsonValue(op.name));
    entry.set("calls", JsonValue(calls));
    entry.set("fraction", JsonValue(total_calls > 0 ? static_cast<double>(calls) /
                                                          static_cast<double>(total_calls)
                                                    : 0.0));
    attribution.push_back(std::move(entry));
  }
  backend.set("attribution", std::move(attribution));
  doc.set("backend", std::move(backend));

  JsonValue wallclock = JsonValue::object();
  wallclock.set("wall_seconds", JsonValue(profile.wall_seconds));
  wallclock.set("eval_seconds", JsonValue(profile.eval_seconds));
  wallclock.set("claim_seconds", JsonValue(profile.claim_seconds));
  wallclock.set("merge_seconds", JsonValue(profile.merge_seconds));
  wallclock.set("tail_idle_seconds", JsonValue(profile.tail_idle_seconds));
  const double worker_seconds =
      profile.eval_seconds + profile.claim_seconds + profile.tail_idle_seconds;
  wallclock.set("busy_fraction",
                JsonValue(worker_seconds > 0.0 ? profile.eval_seconds / worker_seconds : 0.0));
  wallclock.set("combos_per_sec",
                JsonValue(profile.wall_seconds > 0.0
                              ? static_cast<double>(profile.total_combinations) /
                                    profile.wall_seconds
                              : 0.0));
  doc.set("wallclock", std::move(wallclock));

  JsonValue imbalance = JsonValue::array();
  set_phase_json(imbalance, hostprof_imbalance(profile, "evaluate"));
  set_phase_json(imbalance, hostprof_imbalance(profile, "claim"));
  set_phase_json(imbalance, hostprof_imbalance(profile, "tail_idle"));
  doc.set("imbalance", std::move(imbalance));

  JsonValue latency = JsonValue::object();
  JsonValue bounds = JsonValue::array();
  for (const double bound : kClaimBucketBounds) bounds.push_back(JsonValue(bound));
  latency.set("bounds_seconds", std::move(bounds));
  JsonValue counts = JsonValue::array();
  for (std::size_t i = 0; i < kClaimBuckets; ++i) {
    std::uint64_t count = 0;
    for (const HostWorkerStat& worker : profile.worker_stats) count += worker.claim_histogram[i];
    counts.push_back(JsonValue(count));
  }
  latency.set("counts", std::move(counts));
  doc.set("claim_latency", std::move(latency));

  JsonValue workers = JsonValue::array();
  for (const HostWorkerStat& worker : profile.worker_stats) {
    JsonValue entry = JsonValue::object();
    entry.set("worker", JsonValue(static_cast<std::uint64_t>(worker.worker)));
    entry.set("sweeps", JsonValue(worker.sweeps));
    entry.set("chunks", JsonValue(worker.chunks));
    entry.set("skipped_chunks", JsonValue(worker.skipped_chunks));
    entry.set("candidates", JsonValue(worker.candidates));
    entry.set("combinations", JsonValue(worker.combinations));
    entry.set("empty_polls", JsonValue(worker.empty_polls));
    entry.set("claim_seconds", JsonValue(worker.claim_seconds));
    entry.set("eval_seconds", JsonValue(worker.eval_seconds));
    entry.set("tail_idle_seconds", JsonValue(worker.tail_idle_seconds));
    JsonValue histogram = JsonValue::array();
    for (const std::uint64_t count : worker.claim_histogram) histogram.push_back(JsonValue(count));
    entry.set("claim_histogram", std::move(histogram));
    entry.set("bitops_calls", calls_json(worker.calls));
    workers.push_back(std::move(entry));
  }
  doc.set("workers", std::move(workers));

  JsonValue sweeps = JsonValue::array();
  for (const HostSweepStat& sweep : profile.sweeps) {
    JsonValue entry = JsonValue::object();
    entry.set("index", JsonValue(static_cast<std::uint64_t>(sweep.index)));
    entry.set("workers", JsonValue(static_cast<std::uint64_t>(sweep.workers)));
    entry.set("chunk_size", JsonValue(sweep.chunk_size));
    entry.set("chunk_count", JsonValue(sweep.chunk_count));
    entry.set("lambda_end", JsonValue(sweep.lambda_end));
    entry.set("chunks", JsonValue(sweep.chunks));
    entry.set("candidates", JsonValue(sweep.candidates));
    entry.set("combinations", JsonValue(sweep.combinations));
    entry.set("polls", JsonValue(sweep.polls));
    entry.set("wall_seconds", JsonValue(sweep.wall_seconds));
    entry.set("merge_seconds", JsonValue(sweep.merge_seconds));
    sweeps.push_back(std::move(entry));
  }
  doc.set("sweeps", std::move(sweeps));
  return doc;
}

JsonValue hostprof_deterministic(const HostProfile& profile) {
  // Everything here is structural or counted: identical configurations
  // produce byte-identical projections regardless of wall clock, bitops
  // backend, or how chunks happened to land on workers.
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(kHostprofSchema));
  doc.set("deterministic", JsonValue(true));
  doc.set("workload", workload_json(profile));
  doc.set("totals", totals_json(profile));
  return doc;
}

HostProfile hostprof_from_json(const JsonValue& doc) {
  const JsonFields root = require_schema<HostprofError>(doc, kHostprofSchema, "hostprof document");
  HostProfile profile;

  const JsonFields workload = root.object("workload");
  profile.hits = workload.u32("hits");
  profile.scheme = workload.string("scheme");
  profile.lambda_end = workload.u64("lambda_end");
  profile.chunk_size = workload.u64("chunk_size");
  profile.workers = workload.u32("workers");
  profile.bitops_counted = workload.boolean("bitops_counted");
  const std::uint64_t sweep_count = workload.u64("sweeps");

  const JsonFields totals = root.object("totals");
  profile.total_chunks = totals.u64("chunks");
  // Documents from before carried bounds skipped chunks have no such field.
  profile.total_skipped_chunks = totals.has("skipped_chunks") ? totals.u64("skipped_chunks") : 0;
  profile.total_claims = totals.u64("claims");
  profile.total_empty_polls = totals.u64("empty_polls");
  profile.total_candidates = totals.u64("candidates");
  profile.total_combinations = totals.u64("combinations");
  profile.total_calls = calls_from_json(totals.object("bitops_calls"));

  profile.backend = root.object("backend").string("name");

  const JsonFields wallclock = root.object("wallclock");
  profile.wall_seconds = wallclock.number("wall_seconds");
  profile.eval_seconds = wallclock.number("eval_seconds");
  profile.claim_seconds = wallclock.number("claim_seconds");
  profile.merge_seconds = wallclock.number("merge_seconds");
  profile.tail_idle_seconds = wallclock.number("tail_idle_seconds");

  for (const JsonFields& entry : root.array("workers").objects()) {
    HostWorkerStat stat;
    stat.worker = entry.u32("worker");
    stat.sweeps = entry.u64("sweeps");
    stat.chunks = entry.u64("chunks");
    stat.skipped_chunks = entry.has("skipped_chunks") ? entry.u64("skipped_chunks") : 0;
    stat.candidates = entry.u64("candidates");
    stat.combinations = entry.u64("combinations");
    stat.empty_polls = entry.u64("empty_polls");
    stat.claim_seconds = entry.number("claim_seconds");
    stat.eval_seconds = entry.number("eval_seconds");
    stat.tail_idle_seconds = entry.number("tail_idle_seconds");
    const JsonFields histogram = entry.array("claim_histogram");
    if (histogram.size() != kClaimBuckets) {
      histogram.fail("has " + std::to_string(histogram.size()) + " buckets, expected " +
                     std::to_string(kClaimBuckets));
    }
    for (std::size_t b = 0; b < kClaimBuckets; ++b) stat.claim_histogram[b] = histogram.u64_at(b);
    stat.calls = calls_from_json(entry.object("bitops_calls"));
    profile.worker_stats.push_back(std::move(stat));
  }

  const JsonFields sweeps = root.array("sweeps");
  if (sweeps.size() != sweep_count) {
    sweeps.fail("has " + std::to_string(sweeps.size()) + " entries but workload.sweeps says " +
                std::to_string(sweep_count));
  }
  for (const JsonFields& entry : sweeps.objects()) {
    HostSweepStat stat;
    stat.index = entry.u32("index");
    stat.workers = entry.u32("workers");
    stat.chunk_size = entry.u64("chunk_size");
    stat.chunk_count = entry.u64("chunk_count");
    stat.lambda_end = entry.u64("lambda_end");
    stat.chunks = entry.u64("chunks");
    stat.candidates = entry.u64("candidates");
    stat.combinations = entry.u64("combinations");
    stat.polls = entry.u64("polls");
    stat.wall_seconds = entry.number("wall_seconds");
    stat.merge_seconds = entry.number("merge_seconds");
    profile.sweeps.push_back(std::move(stat));
  }

  return profile;
}

// --------------------------------------------------------------- crosschecks

std::vector<std::string> hostprof_crosscheck(const HostProfile& profile) {
  std::vector<std::string> mismatches;
  const auto check_sum = [&](const char* what, std::uint64_t expected, std::uint64_t actual,
                             const char* against) {
    if (expected != actual) {
      mismatches.push_back(std::string(what) + " " + std::to_string(expected) + " != " +
                           std::to_string(actual) + " summed over " + against);
    }
  };

  std::uint64_t worker_chunks = 0, worker_candidates = 0, worker_combinations = 0;
  std::uint64_t worker_empty = 0, worker_skipped = 0;
  HostBitopsCalls worker_calls;
  for (const HostWorkerStat& worker : profile.worker_stats) {
    worker_chunks += worker.chunks;
    worker_skipped += worker.skipped_chunks;
    worker_candidates += worker.candidates;
    worker_combinations += worker.combinations;
    worker_empty += worker.empty_polls;
    worker_calls += worker.calls;
    // Skipped chunks are claimed without a clock read, so only timed polls
    // land in the histogram.
    std::uint64_t mass = 0;
    for (const std::uint64_t count : worker.claim_histogram) mass += count;
    if (worker.skipped_chunks > worker.chunks ||
        mass != worker.chunks - worker.skipped_chunks + worker.empty_polls) {
      mismatches.push_back("worker " + std::to_string(worker.worker) + " claim histogram mass " +
                           std::to_string(mass) + " != timed polls " +
                           std::to_string(worker.chunks + worker.empty_polls) + " - " +
                           std::to_string(worker.skipped_chunks) + " skipped");
    }
  }
  check_sum("totals.chunks", profile.total_chunks, worker_chunks, "workers");
  check_sum("totals.skipped_chunks", profile.total_skipped_chunks, worker_skipped, "workers");
  check_sum("totals.candidates", profile.total_candidates, worker_candidates, "workers");
  check_sum("totals.combinations", profile.total_combinations, worker_combinations, "workers");
  check_sum("totals.empty_polls", profile.total_empty_polls, worker_empty, "workers");
  check_sum("totals.bitops_calls.total", profile.total_calls.total(), worker_calls.total(),
            "workers");
  if (profile.total_claims != profile.total_chunks) {
    mismatches.push_back("totals.claims " + std::to_string(profile.total_claims) +
                         " != totals.chunks " + std::to_string(profile.total_chunks) +
                         " (every successful poll claims exactly one chunk)");
  }

  std::uint64_t sweep_chunks = 0, sweep_candidates = 0, sweep_combinations = 0;
  for (const HostSweepStat& sweep : profile.sweeps) {
    sweep_chunks += sweep.chunks;
    sweep_candidates += sweep.candidates;
    sweep_combinations += sweep.combinations;
    if (sweep.chunks != sweep.chunk_count) {
      mismatches.push_back("sweep " + std::to_string(sweep.index) + " evaluated " +
                           std::to_string(sweep.chunks) + " chunks but the queue held " +
                           std::to_string(sweep.chunk_count));
    }
    // Each launched worker's drain loop fails exactly once, so at quiescence
    // polls == chunk_count + workers — the ChunkQueue starvation invariant.
    if (sweep.polls != sweep.chunk_count + sweep.workers) {
      mismatches.push_back("sweep " + std::to_string(sweep.index) + " polls " +
                           std::to_string(sweep.polls) + " != chunk_count + workers " +
                           std::to_string(sweep.chunk_count + sweep.workers));
    }
  }
  check_sum("totals.chunks", profile.total_chunks, sweep_chunks, "sweeps");
  check_sum("totals.candidates", profile.total_candidates, sweep_candidates, "sweeps");
  check_sum("totals.combinations", profile.total_combinations, sweep_combinations, "sweeps");

  if (profile.workers != profile.worker_stats.size()) {
    mismatches.push_back("workload.workers " + std::to_string(profile.workers) +
                         " != workers table size " + std::to_string(profile.worker_stats.size()));
  }
  return mismatches;
}

// -------------------------------------------------------------------- folded

std::string hostprof_folded(const HostProfile& profile) {
  // Same collapsed-stack text folded_stacks() emits: integer self
  // microseconds per distinct stack, map-sorted, zero-µs stacks dropped.
  std::map<std::string, double> self;
  self["hostsweep;merge"] = profile.merge_seconds;
  for (const HostWorkerStat& worker : profile.worker_stats) {
    const std::string base = "hostsweep;worker " + std::to_string(worker.worker);
    self[base + ";claim"] = worker.claim_seconds;
    self[base + ";evaluate"] = worker.eval_seconds;
    self[base + ";tail_idle"] = worker.tail_idle_seconds;
  }
  std::string out;
  for (const auto& [stack, seconds] : self) {
    const auto micros = static_cast<std::int64_t>(std::llround(std::max(seconds, 0.0) * 1e6));
    if (micros <= 0) continue;
    out += stack;
    out += ' ';
    out += std::to_string(micros);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------- text

std::string hostprof_text(const HostProfile& profile, bool summary) {
  std::string out = "host profile\n";
  out += "  workload: " + std::to_string(profile.sweeps.size()) + " sweeps, " +
         std::to_string(profile.workers) + " workers, chunk " +
         std::to_string(profile.chunk_size) + ", scheme " + profile.scheme + ", hits " +
         std::to_string(profile.hits) + ", lambda_end " + std::to_string(profile.lambda_end) +
         "\n";
  out += "  totals: " + std::to_string(profile.total_chunks) + " chunks (" +
         std::to_string(profile.total_skipped_chunks) + " skipped on carried bounds, " +
         std::to_string(profile.total_empty_polls) + " empty polls), " +
         std::to_string(profile.total_candidates) + " candidates, " +
         std::to_string(profile.total_combinations) + " combinations\n";
  const std::uint64_t total_calls = profile.total_calls.total();
  if (profile.bitops_counted) {
    out += "  bitops (" + profile.backend + "): " + std::to_string(total_calls) + " calls";
    if (profile.total_combinations > 0) {
      out += ", " +
             fmt("%.3f", static_cast<double>(total_calls) /
                             static_cast<double>(profile.total_combinations)) +
             " per combination";
    }
    out += "\n";
    for (const OpField& op : kOpFields) {
      const std::uint64_t calls = profile.total_calls.*op.member;
      if (calls == 0) continue;
      out += std::string("    ") + op.name + ": " + std::to_string(calls) + " (" +
             fmt("%.1f", 100.0 * static_cast<double>(calls) / static_cast<double>(total_calls)) +
             "%)\n";
    }
  } else {
    out += "  bitops (" + profile.backend + "): call counting off\n";
  }
  const double worker_seconds =
      profile.eval_seconds + profile.claim_seconds + profile.tail_idle_seconds;
  out += "  wallclock: wall " + fmt("%.6g", profile.wall_seconds) + " s, eval " +
         fmt("%.6g", profile.eval_seconds) + " s";
  if (worker_seconds > 0.0) {
    out += " (" + fmt("%.1f", 100.0 * profile.eval_seconds / worker_seconds) + "% of worker time)";
  }
  out += ", claim " + fmt("%.6g", profile.claim_seconds) + " s, merge " +
         fmt("%.6g", profile.merge_seconds) + " s, tail idle " +
         fmt("%.6g", profile.tail_idle_seconds) + " s\n";
  if (profile.wall_seconds > 0.0) {
    out += "  throughput: " +
           fmt("%.6g", static_cast<double>(profile.total_combinations) / profile.wall_seconds) +
           " combos/s\n";
  }
  out += "  imbalance (max/mean across workers):\n";
  for (const char* phase : {"evaluate", "claim", "tail_idle"}) {
    const PhaseStat stat = hostprof_imbalance(profile, phase);
    out += std::string("    ") + phase + ": mean " + fmt("%.6g", stat.mean_seconds) + " s, max " +
           fmt("%.6g", stat.max_seconds) + " s (worker " + std::to_string(stat.straggler_lane) +
           "), max/mean " + fmt("%.3f", stat.max_over_mean) + "\n";
  }
  if (!summary && !profile.worker_stats.empty()) {
    out += "  workers:\n";
    for (const HostWorkerStat& worker : profile.worker_stats) {
      out += "    " + std::to_string(worker.worker) + ": chunks " +
             std::to_string(worker.chunks) + ", combos " + std::to_string(worker.combinations) +
             ", eval " + fmt("%.6g", worker.eval_seconds) + " s, claim " +
             fmt("%.6g", worker.claim_seconds) + " s, idle " +
             fmt("%.6g", worker.tail_idle_seconds) + " s\n";
    }
  }
  return out;
}

}  // namespace multihit::obs
