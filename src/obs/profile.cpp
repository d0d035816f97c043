#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "obs/analyze.hpp"
#include "obs/trace.hpp"

namespace multihit::obs {

void Profiler::record(KernelProfile profile) {
  if (!enabled_) return;
  profile.rank = context_.rank;
  profile.gpu = context_.gpu;
  profile.iteration = context_.iteration;
  profile.recovery = context_.recovery;
  // Standalone device runs never annotate; default the traced placement to
  // the un-jittered model so every record has a usable duration.
  if (profile.sim_seconds == 0.0) profile.sim_seconds = profile.modeled_seconds;
  records_.push_back(std::move(profile));
}

void Profiler::annotate_last(double sim_begin, double sim_seconds) {
  if (!enabled_ || records_.empty()) return;
  records_.back().sim_begin = sim_begin;
  records_.back().sim_seconds = sim_seconds;
}

void Profiler::mark_node_lost(std::uint32_t rank, std::uint32_t iteration) {
  if (!enabled_) return;
  for (KernelProfile& profile : records_) {
    if (profile.rank == rank && profile.iteration == iteration && !profile.recovery) {
      profile.lost = true;
    }
  }
}

namespace {

JsonValue device_json(const ProfileDevice& device) {
  JsonValue out = JsonValue::object();
  out.set("sm_count", JsonValue(static_cast<double>(device.sm_count)));
  out.set("max_threads_per_sm", JsonValue(static_cast<double>(device.max_threads_per_sm)));
  out.set("block_size", JsonValue(static_cast<double>(device.block_size)));
  out.set("warp_size", JsonValue(static_cast<double>(device.warp_size)));
  out.set("dram_bandwidth", JsonValue(device.dram_bandwidth));
  out.set("word_op_rate", JsonValue(device.word_op_rate));
  out.set("l2_reuse", JsonValue(device.l2_reuse));
  out.set("ridge_ops_per_byte", JsonValue(device.ridge_ops_per_byte()));
  return out;
}

JsonValue kernel_json(const KernelProfile& k) {
  JsonValue out = JsonValue::object();
  out.set("rank", JsonValue(static_cast<double>(k.rank)));
  out.set("gpu", JsonValue(static_cast<double>(k.gpu)));
  out.set("iteration", JsonValue(static_cast<double>(k.iteration)));
  out.set("recovery", JsonValue(k.recovery));
  out.set("lost", JsonValue(k.lost));
  out.set("lambda_begin", JsonValue(static_cast<double>(k.lambda_begin)));
  out.set("lambda_end", JsonValue(static_cast<double>(k.lambda_end)));
  out.set("combinations", JsonValue(static_cast<double>(k.combinations)));
  out.set("blocks", JsonValue(static_cast<double>(k.blocks)));
  out.set("reduce_stages", JsonValue(static_cast<double>(k.reduce_stages)));
  out.set("word_ops", JsonValue(static_cast<double>(k.word_ops)));
  out.set("candidate_bytes", JsonValue(static_cast<double>(k.candidate_bytes)));
  out.set("global_bytes", JsonValue(k.global_bytes));
  out.set("dram_bytes", JsonValue(k.dram_bytes));
  out.set("local_bytes", JsonValue(k.local_bytes));
  out.set("occupancy", JsonValue(k.occupancy));
  out.set("resident_warps", JsonValue(k.resident_warps));
  out.set("mem_efficiency", JsonValue(k.mem_efficiency));
  out.set("compute_seconds", JsonValue(k.compute_seconds));
  out.set("memory_seconds", JsonValue(k.memory_seconds));
  out.set("reduce_seconds", JsonValue(k.reduce_seconds));
  out.set("overhead_seconds", JsonValue(k.overhead_seconds));
  out.set("modeled_seconds", JsonValue(k.modeled_seconds));
  out.set("memory_bound", JsonValue(k.memory_bound));
  out.set("dram_throughput", JsonValue(k.dram_throughput));
  out.set("arithmetic_intensity", JsonValue(k.arithmetic_intensity));
  out.set("sim_begin", JsonValue(k.sim_begin));
  out.set("sim_seconds", JsonValue(k.sim_seconds));
  out.set("stall_memory_dependency", JsonValue(k.stall_memory_dependency));
  out.set("stall_memory_throttle", JsonValue(k.stall_memory_throttle));
  out.set("stall_execution_dependency", JsonValue(k.stall_execution_dependency));
  out.set("stall_other", JsonValue(k.stall_other));
  return out;
}

/// Aggregates shared by the rollup, rank, and heatmap sections. Sums
/// accumulate in record order so they reproduce the metrics registry's
/// counter arithmetic exactly.
struct Rollup {
  std::uint64_t kernels = 0;
  std::uint64_t recovery_kernels = 0;
  std::uint64_t lost_kernels = 0;
  double combinations = 0.0;
  double blocks = 0.0;
  double word_ops = 0.0;
  double global_bytes = 0.0;
  double dram_bytes = 0.0;
  double local_bytes = 0.0;
  double sim_seconds = 0.0;       ///< summed GPU-seconds (GPUs run concurrently)
  double max_kernel_seconds = 0.0;
  double occupancy_sum = 0.0;
  std::uint64_t memory_bound = 0;
  // Stall fractions weighted by traced seconds (falls back to the plain mean
  // when every kernel is instantaneous).
  double stall_weight = 0.0;
  double w_mem_dep = 0.0, w_mem_throttle = 0.0, w_exec_dep = 0.0, w_other = 0.0;

  void absorb(const KernelProfile& k) {
    ++kernels;
    if (k.recovery) ++recovery_kernels;
    if (k.lost) ++lost_kernels;
    combinations += static_cast<double>(k.combinations);
    blocks += static_cast<double>(k.blocks);
    word_ops += static_cast<double>(k.word_ops);
    global_bytes += k.global_bytes;
    dram_bytes += k.dram_bytes;
    local_bytes += k.local_bytes;
    sim_seconds += k.sim_seconds;
    max_kernel_seconds = std::max(max_kernel_seconds, k.sim_seconds);
    occupancy_sum += k.occupancy;
    if (k.memory_bound) ++memory_bound;
    const double w = k.sim_seconds > 0.0 ? k.sim_seconds : 0.0;
    stall_weight += w;
    w_mem_dep += w * k.stall_memory_dependency;
    w_mem_throttle += w * k.stall_memory_throttle;
    w_exec_dep += w * k.stall_execution_dependency;
    w_other += w * k.stall_other;
  }

  double occupancy_mean() const {
    return kernels > 0 ? occupancy_sum / static_cast<double>(kernels) : 0.0;
  }
  double stall(double weighted, double fallback_sum) const {
    if (stall_weight > 0.0) return weighted / stall_weight;
    return kernels > 0 ? fallback_sum / static_cast<double>(kernels) : 0.0;
  }
};

/// Unweighted stall sums for the zero-duration fallback.
struct StallSums {
  double mem_dep = 0.0, mem_throttle = 0.0, exec_dep = 0.0, other = 0.0;
  void absorb(const KernelProfile& k) {
    mem_dep += k.stall_memory_dependency;
    mem_throttle += k.stall_memory_throttle;
    exec_dep += k.stall_execution_dependency;
    other += k.stall_other;
  }
};

void set_stalls(JsonValue& out, const Rollup& r, const StallSums& s) {
  out.set("stall_memory_dependency", JsonValue(r.stall(r.w_mem_dep, s.mem_dep)));
  out.set("stall_memory_throttle", JsonValue(r.stall(r.w_mem_throttle, s.mem_throttle)));
  out.set("stall_execution_dependency", JsonValue(r.stall(r.w_exec_dep, s.exec_dep)));
  out.set("stall_other", JsonValue(r.stall(r.w_other, s.other)));
}

}  // namespace

JsonValue profile_report(const Profiler& profiler) {
  const std::vector<KernelProfile>& records = profiler.records();

  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(kProfileSchema));
  doc.set("device", device_json(profiler.device()));

  JsonValue kernels = JsonValue::array();
  for (const KernelProfile& k : records) kernels.push_back(kernel_json(k));
  doc.set("kernels", std::move(kernels));

  // Per-rank×iteration rollups, sorted by (rank, iteration); recovery
  // launches roll into the iteration they repaired.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<Rollup, StallSums>> by_iter;
  std::map<std::uint32_t, std::pair<Rollup, StallSums>> by_rank;
  // Heatmap cells keyed by (gpu slot, iteration).
  std::map<std::uint32_t, std::map<std::uint32_t, Rollup>> by_gpu;
  Rollup total;
  StallSums total_stalls;
  double modeled_total = 0.0;
  double candidate_total = 0.0;
  for (const KernelProfile& k : records) {
    auto& [iter_roll, iter_stalls] = by_iter[{k.rank, k.iteration}];
    iter_roll.absorb(k);
    iter_stalls.absorb(k);
    auto& [rank_roll, rank_stalls] = by_rank[k.rank];
    rank_roll.absorb(k);
    rank_stalls.absorb(k);
    by_gpu[k.gpu][k.iteration].absorb(k);
    total.absorb(k);
    total_stalls.absorb(k);
    modeled_total += k.modeled_seconds;
    candidate_total += static_cast<double>(k.candidate_bytes);
  }

  JsonValue rollups = JsonValue::array();
  for (const auto& [key, entry] : by_iter) {
    const auto& [roll, stalls] = entry;
    JsonValue row = JsonValue::object();
    row.set("rank", JsonValue(static_cast<double>(key.first)));
    row.set("iteration", JsonValue(static_cast<double>(key.second)));
    row.set("kernels", JsonValue(static_cast<double>(roll.kernels)));
    row.set("recovery_kernels", JsonValue(static_cast<double>(roll.recovery_kernels)));
    row.set("lost_kernels", JsonValue(static_cast<double>(roll.lost_kernels)));
    row.set("combinations", JsonValue(roll.combinations));
    row.set("blocks", JsonValue(roll.blocks));
    row.set("word_ops", JsonValue(roll.word_ops));
    row.set("global_bytes", JsonValue(roll.global_bytes));
    row.set("dram_bytes", JsonValue(roll.dram_bytes));
    row.set("local_bytes", JsonValue(roll.local_bytes));
    row.set("gpu_seconds", JsonValue(roll.sim_seconds));
    row.set("max_kernel_seconds", JsonValue(roll.max_kernel_seconds));
    row.set("occupancy_mean", JsonValue(roll.occupancy_mean()));
    row.set("memory_bound_kernels", JsonValue(static_cast<double>(roll.memory_bound)));
    set_stalls(row, roll, stalls);
    rollups.push_back(std::move(row));
  }
  doc.set("rollups", std::move(rollups));

  JsonValue ranks = JsonValue::array();
  for (const auto& [rank, entry] : by_rank) {
    const auto& [roll, stalls] = entry;
    JsonValue row = JsonValue::object();
    row.set("rank", JsonValue(static_cast<double>(rank)));
    row.set("kernels", JsonValue(static_cast<double>(roll.kernels)));
    row.set("lost_kernels", JsonValue(static_cast<double>(roll.lost_kernels)));
    row.set("combinations", JsonValue(roll.combinations));
    row.set("global_bytes", JsonValue(roll.global_bytes));
    row.set("dram_bytes", JsonValue(roll.dram_bytes));
    row.set("gpu_seconds", JsonValue(roll.sim_seconds));
    row.set("occupancy_mean", JsonValue(roll.occupancy_mean()));
    set_stalls(row, roll, stalls);
    ranks.push_back(std::move(row));
  }
  doc.set("ranks", std::move(ranks));

  // Device roofline summary over every launch.
  {
    JsonValue roofline = JsonValue::object();
    roofline.set("ridge_ops_per_byte", JsonValue(profiler.device().ridge_ops_per_byte()));
    roofline.set("memory_bound_kernels", JsonValue(static_cast<double>(total.memory_bound)));
    roofline.set("compute_bound_kernels",
                 JsonValue(static_cast<double>(total.kernels - total.memory_bound)));
    double min_intensity = 0.0, max_intensity = 0.0, sum_intensity = 0.0;
    double peak_throughput = 0.0, sum_throughput = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const KernelProfile& k = records[i];
      if (i == 0) {
        min_intensity = max_intensity = k.arithmetic_intensity;
      } else {
        min_intensity = std::min(min_intensity, k.arithmetic_intensity);
        max_intensity = std::max(max_intensity, k.arithmetic_intensity);
      }
      sum_intensity += k.arithmetic_intensity;
      peak_throughput = std::max(peak_throughput, k.dram_throughput);
      sum_throughput += k.dram_throughput;
    }
    const double n = records.empty() ? 1.0 : static_cast<double>(records.size());
    roofline.set("min_intensity", JsonValue(min_intensity));
    roofline.set("max_intensity", JsonValue(max_intensity));
    roofline.set("mean_intensity", JsonValue(sum_intensity / n));
    roofline.set("mean_occupancy", JsonValue(total.occupancy_mean()));
    roofline.set("peak_dram_throughput", JsonValue(peak_throughput));
    roofline.set("mean_dram_throughput", JsonValue(sum_throughput / n));
    set_stalls(roofline, total, total_stalls);
    doc.set("roofline", std::move(roofline));
  }

  // Per-GPU tetrahedral-slab workload heatmap: one row per GPU slot, one
  // cell per iteration it launched in — EA-vs-ED imbalance at counter level.
  JsonValue heatmap = JsonValue::array();
  for (const auto& [gpu, cells] : by_gpu) {
    JsonValue row = JsonValue::object();
    row.set("gpu", JsonValue(static_cast<double>(gpu)));
    JsonValue cell_rows = JsonValue::array();
    for (const auto& [iteration, roll] : cells) {
      JsonValue cell = JsonValue::object();
      cell.set("iteration", JsonValue(static_cast<double>(iteration)));
      cell.set("kernels", JsonValue(static_cast<double>(roll.kernels)));
      cell.set("recovery_kernels", JsonValue(static_cast<double>(roll.recovery_kernels)));
      cell.set("combinations", JsonValue(roll.combinations));
      cell.set("global_bytes", JsonValue(roll.global_bytes));
      cell.set("dram_bytes", JsonValue(roll.dram_bytes));
      cell.set("gpu_seconds", JsonValue(roll.sim_seconds));
      cell_rows.push_back(std::move(cell));
    }
    row.set("cells", std::move(cell_rows));
    heatmap.push_back(std::move(row));
  }
  doc.set("heatmap", std::move(heatmap));

  JsonValue totals = JsonValue::object();
  totals.set("kernels", JsonValue(static_cast<double>(total.kernels)));
  totals.set("launches", JsonValue(static_cast<double>(2 * total.kernels)));
  totals.set("recovery_kernels", JsonValue(static_cast<double>(total.recovery_kernels)));
  totals.set("lost_kernels", JsonValue(static_cast<double>(total.lost_kernels)));
  totals.set("combinations", JsonValue(total.combinations));
  totals.set("blocks", JsonValue(total.blocks));
  totals.set("word_ops", JsonValue(total.word_ops));
  totals.set("candidate_bytes", JsonValue(candidate_total));
  totals.set("global_bytes", JsonValue(total.global_bytes));
  totals.set("dram_bytes", JsonValue(total.dram_bytes));
  totals.set("local_bytes", JsonValue(total.local_bytes));
  totals.set("gpu_seconds", JsonValue(total.sim_seconds));
  totals.set("modeled_seconds", JsonValue(modeled_total));
  doc.set("totals", std::move(totals));
  return doc;
}

Profiler profiler_from_json(const JsonValue& doc) {
  const JsonFields root = require_schema<ProfileError>(doc, kProfileSchema, "profile document");

  Profiler profiler;
  profiler.enable();

  const JsonFields device = root.object("device");
  ProfileDevice spec;
  spec.sm_count = device.u32("sm_count");
  spec.max_threads_per_sm = device.u32("max_threads_per_sm");
  spec.block_size = device.u32("block_size");
  spec.warp_size = device.u32("warp_size");
  spec.dram_bandwidth = device.number("dram_bandwidth");
  spec.word_op_rate = device.number("word_op_rate");
  spec.l2_reuse = device.number("l2_reuse");
  profiler.set_device(spec);

  for (const JsonFields& entry : root.array("kernels").objects()) {
    KernelProfile k;
    k.rank = entry.u32("rank");
    k.gpu = entry.u32("gpu");
    k.iteration = entry.u32("iteration");
    k.recovery = entry.boolean("recovery");
    k.lost = entry.boolean("lost");
    k.lambda_begin = entry.u64("lambda_begin");
    k.lambda_end = entry.u64("lambda_end");
    k.combinations = entry.u64("combinations");
    k.blocks = entry.u64("blocks");
    k.reduce_stages = entry.u32("reduce_stages");
    k.word_ops = entry.u64("word_ops");
    k.candidate_bytes = entry.u64("candidate_bytes");
    k.global_bytes = entry.number("global_bytes");
    k.dram_bytes = entry.number("dram_bytes");
    k.local_bytes = entry.number("local_bytes");
    k.occupancy = entry.number("occupancy");
    k.resident_warps = entry.number("resident_warps");
    k.mem_efficiency = entry.number("mem_efficiency");
    k.compute_seconds = entry.number("compute_seconds");
    k.memory_seconds = entry.number("memory_seconds");
    k.reduce_seconds = entry.number("reduce_seconds");
    k.overhead_seconds = entry.number("overhead_seconds");
    k.modeled_seconds = entry.number("modeled_seconds");
    k.memory_bound = entry.boolean("memory_bound");
    k.dram_throughput = entry.number("dram_throughput");
    k.arithmetic_intensity = entry.number("arithmetic_intensity");
    k.sim_begin = entry.number("sim_begin");
    k.sim_seconds = entry.number("sim_seconds");
    k.stall_memory_dependency = entry.number("stall_memory_dependency");
    k.stall_memory_throttle = entry.number("stall_memory_throttle");
    k.stall_execution_dependency = entry.number("stall_execution_dependency");
    k.stall_other = entry.number("stall_other");
  // Bypass context stamping: the record carries its own context.
    LaunchContext ctx{k.rank, k.gpu, k.iteration, k.recovery};
    profiler.set_context(ctx);
    profiler.record(std::move(k));
  }
  profiler.set_context({});
  return profiler;
}

std::string profile_text(const Profiler& profiler, bool summary_only) {
  const JsonValue doc = profile_report(profiler);
  const JsonValue& totals = *doc.find("totals");
  const JsonValue& roofline = *doc.find("roofline");
  const JsonValue& rollups = *doc.find("rollups");
  const JsonValue& ranks = *doc.find("ranks");
  const auto num = [](const JsonValue& obj, const char* key) {
    return obj.find(key)->as_number();
  };

  std::string out;
  out += "profile: " + fmt("%.0f", num(totals, "kernels")) + " kernel pipelines (" +
         fmt("%.0f", num(totals, "launches")) + " launches) across " +
         fmt("%.0f", static_cast<double>(ranks.size())) + " rank(s)\n";
  out += "  combinations " + fmt("%.6g", num(totals, "combinations")) + ", word ops " +
         fmt("%.6g", num(totals, "word_ops")) + ", GPU-seconds " +
         fmt("%.6g", num(totals, "gpu_seconds")) + "\n";
  out += "  traffic: counted global " + fmt("%.6g", num(totals, "global_bytes")) +
         " B -> DRAM " + fmt("%.6g", num(totals, "dram_bytes")) + " B, prefetch-served " +
         fmt("%.6g", num(totals, "local_bytes")) + " B, candidates " +
         fmt("%.6g", num(totals, "candidate_bytes")) + " B\n";
  out += "  roofline: ridge " + fmt("%.4g", num(roofline, "ridge_ops_per_byte")) +
         " ops/B; " + fmt("%.0f", num(roofline, "memory_bound_kernels")) +
         " memory-bound / " + fmt("%.0f", num(roofline, "compute_bound_kernels")) +
         " compute-bound; intensity mean " + fmt("%.4g", num(roofline, "mean_intensity")) +
         " ops/B; occupancy mean " + fmt("%.4g", num(roofline, "mean_occupancy")) + "\n";
  out += "  stalls (time-weighted): mem-dep " +
         fmt("%.1f", 100.0 * num(roofline, "stall_memory_dependency")) + "%  mem-throttle " +
         fmt("%.1f", 100.0 * num(roofline, "stall_memory_throttle")) + "%  exec-dep " +
         fmt("%.1f", 100.0 * num(roofline, "stall_execution_dependency")) + "%  other " +
         fmt("%.1f", 100.0 * num(roofline, "stall_other")) + "%\n";
  if (num(totals, "lost_kernels") > 0.0 || num(totals, "recovery_kernels") > 0.0) {
    out += "  faults: " + fmt("%.0f", num(totals, "lost_kernels")) + " launch(es) lost, " +
           fmt("%.0f", num(totals, "recovery_kernels")) + " recovery launch(es)\n";
  }
  if (summary_only) return out;

  out += "\n  rank iter  kernels     combinations       dram_bytes  gpu_seconds    occ  "
         "mem-dep\n";
  for (std::size_t i = 0; i < rollups.size(); ++i) {
    const JsonValue& row = rollups.at(i);
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %4.0f %4.0f %8.0f %16.6g %16.6g %12.6g %6.3f %7.1f%%\n",
                  num(row, "rank"), num(row, "iteration"), num(row, "kernels"),
                  num(row, "combinations"), num(row, "dram_bytes"), num(row, "gpu_seconds"),
                  num(row, "occupancy_mean"), 100.0 * num(row, "stall_memory_dependency"));
    out += line;
  }
  return out;
}

std::string roofline_csv(const Profiler& profiler) {
  std::string out =
      "rank,gpu,iteration,recovery,arithmetic_intensity,word_ops_per_sec,"
      "dram_bytes_per_sec,occupancy,memory_bound,sim_seconds\n";
  for (const KernelProfile& k : profiler.records()) {
    const double ops_rate =
        k.sim_seconds > 0.0 ? static_cast<double>(k.word_ops) / k.sim_seconds : 0.0;
    out += std::to_string(k.rank) + ',' + std::to_string(k.gpu) + ',' +
           std::to_string(k.iteration) + ',' + (k.recovery ? "1," : "0,") +
           json_number(k.arithmetic_intensity) + ',' + json_number(ops_rate) + ',' +
           json_number(k.dram_throughput) + ',' + json_number(k.occupancy) + ',' +
           (k.memory_bound ? "1," : "0,") + json_number(k.sim_seconds) + '\n';
  }
  return out;
}

std::string heatmap_csv(const Profiler& profiler) {
  std::map<std::uint32_t, std::map<std::uint32_t, Rollup>> by_gpu;
  for (const KernelProfile& k : profiler.records()) by_gpu[k.gpu][k.iteration].absorb(k);
  std::string out = "gpu,iteration,kernels,combinations,global_bytes,dram_bytes,gpu_seconds\n";
  for (const auto& [gpu, cells] : by_gpu) {
    for (const auto& [iteration, roll] : cells) {
      out += std::to_string(gpu) + ',' + std::to_string(iteration) + ',' +
             std::to_string(roll.kernels) + ',' + json_number(roll.combinations) + ',' +
             json_number(roll.global_bytes) + ',' + json_number(roll.dram_bytes) + ',' +
             json_number(roll.sim_seconds) + '\n';
    }
  }
  return out;
}

namespace {

/// Sorted per-rank value multisets compared element-wise. Exact equality is
/// intentional for counted quantities (both sides carry the same doubles);
/// `tolerance` loosens it for quantities that survive a microsecond
/// round-trip through the Chrome trace.
bool multiset_equal(std::vector<double> a, std::vector<double> b, double tolerance,
                    std::size_t* index, double* lhs, double* rhs) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double allowed = tolerance * std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    if (!(std::abs(a[i] - b[i]) <= allowed)) {
      *index = i;
      *lhs = a[i];
      *rhs = b[i];
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<std::string> profile_crosscheck(const Profiler& profiler, const Tracer* trace,
                                            const JsonValue* metrics) {
  std::vector<std::string> mismatches;
  const std::vector<KernelProfile>& records = profiler.records();

  if (metrics) {
    // Reproduce the registry's accumulation: one Counter::add per launch in
    // record order, so the sums are bit-for-bit the counter values.
    std::map<std::string, double> totals;
    bool readable = true;
    try {
      totals = metrics_counter_totals(*metrics);
    } catch (const AnalysisError& error) {
      mismatches.push_back(error.what());
      readable = false;
    }
    if (readable) {
      double launches = 0.0, blocks = 0.0, combinations = 0.0, word_ops = 0.0;
      double global_bytes = 0.0, candidate_bytes = 0.0;
      for (const KernelProfile& k : records) {
        launches += 2.0;
        blocks += static_cast<double>(k.blocks);
        combinations += static_cast<double>(k.combinations);
        word_ops += static_cast<double>(k.word_ops);
        global_bytes += k.global_bytes;
        candidate_bytes += static_cast<double>(k.candidate_bytes);
      }
      const auto check = [&](const char* counter, double expected) {
        const auto it = totals.find(counter);
        const double actual = it != totals.end() ? it->second : 0.0;
        if (actual != expected) {
          mismatches.push_back(std::string("metrics counter ") + counter + " total " +
                               json_number(actual) + " != profile sum " +
                               json_number(expected));
        }
      };
      check("gpu.kernel_launches", launches);
      check("gpu.blocks", blocks);
      check("gpu.combinations", combinations);
      check("gpu.word_ops", word_ops);
      check("gpu.dram_bytes", global_bytes);  // the counter counts pre-reuse bytes
      check("gpu.candidate_bytes", candidate_bytes);
    }
  }

  if (trace) {
    // Per rank lane: every profiled launch must appear as exactly one
    // gpu_kernel span, with matching counted traffic and traced duration.
    std::map<std::uint32_t, std::vector<double>> span_bytes, span_durations;
    std::map<std::uint32_t, std::size_t> span_count;
    bool args_ok = true;
    for (const TraceEvent& event : trace->events()) {
      if (event.name != "gpu_kernel" || event.lane >= kEngineLane) continue;
      ++span_count[event.lane];
      span_durations[event.lane].push_back(event.duration());
      bool found = false;
      for (const auto& [key, value] : event.args) {
        if (key == "global_bytes") {
          span_bytes[event.lane].push_back(std::strtod(value.c_str(), nullptr));
          found = true;
          break;
        }
      }
      if (!found && args_ok) {
        mismatches.push_back("rank " + std::to_string(event.lane) +
                             ": gpu_kernel span missing global_bytes arg");
        args_ok = false;
      }
    }
    std::map<std::uint32_t, std::vector<double>> record_bytes, record_durations;
    for (const KernelProfile& k : records) {
      record_bytes[k.rank].push_back(k.global_bytes);
      record_durations[k.rank].push_back(k.sim_seconds);
    }
    for (const auto& [rank, bytes] : record_bytes) {
      const auto it = span_count.find(rank);
      const std::size_t spans = it != span_count.end() ? it->second : 0;
      if (spans != bytes.size()) {
        mismatches.push_back("rank " + std::to_string(rank) + ": " + std::to_string(spans) +
                             " gpu_kernel span(s) != " + std::to_string(bytes.size()) +
                             " profiled kernel(s)");
        continue;
      }
      std::size_t index = 0;
      double lhs = 0.0, rhs = 0.0;
      if (args_ok &&
          !multiset_equal(span_bytes[rank], bytes, 0.0, &index, &lhs, &rhs)) {
        mismatches.push_back("rank " + std::to_string(rank) +
                             ": span global_bytes multiset differs from profile (sorted index " +
                             std::to_string(index) + ": " + json_number(lhs) + " vs " +
                             json_number(rhs) + ")");
      }
      // Durations survive a seconds -> microseconds -> seconds round-trip in
      // the Chrome export, so allow a relative 1e-9.
      if (!multiset_equal(span_durations[rank], record_durations[rank], 1e-9, &index, &lhs,
                          &rhs)) {
        mismatches.push_back("rank " + std::to_string(rank) +
                             ": span duration multiset differs from profile (sorted index " +
                             std::to_string(index) + ": " + json_number(lhs) + " vs " +
                             json_number(rhs) + ")");
      }
    }
    for (const auto& [rank, count] : span_count) {
      if (record_bytes.find(rank) == record_bytes.end()) {
        mismatches.push_back("rank " + std::to_string(rank) + ": " + std::to_string(count) +
                             " gpu_kernel span(s) but no profiled kernels");
      }
    }
  }

  return mismatches;
}

}  // namespace multihit::obs
