#include "sched/workload.hpp"

#include <algorithm>
#include <cassert>

namespace multihit {

void WorkloadModel::finalize() {
  cumulative_work_.resize(levels_.size() + 1);
  cumulative_work_[0] = 0;
  total_threads_ = 0;
  for (std::size_t idx = 0; idx < levels_.size(); ++idx) {
    const WorkLevel& level = levels_[idx];
    assert(level.first_lambda == total_threads_);
    cumulative_work_[idx + 1] =
        cumulative_work_[idx] +
        static_cast<u128>(level.thread_count) * static_cast<u128>(level.work_per_thread);
    total_threads_ += level.thread_count;
  }
  total_work_ = cumulative_work_.back();
}

WorkloadModel WorkloadModel::for_scheme(Scheme scheme, std::uint32_t genes) {
  WorkloadModel model;
  model.genes_ = genes;
  const u64 threads = scheme_threads(scheme, genes);  // validates the scheme
  const std::uint32_t f = scheme.flat;
  if (f == scheme.hits) {
    model.levels_.push_back({0, threads, 1});
  } else {
    for (std::uint32_t t = f - 1; t < genes; ++t) {
      model.levels_.push_back(
          {binomial(t, f), binomial(t, f - 1), binomial(genes - 1 - t, scheme.hits - f)});
    }
  }
  model.finalize();
  return model;
}

WorkloadModel WorkloadModel::reweighted(u64 per_combination, u64 per_thread) const {
  WorkloadModel model;
  model.genes_ = genes_;
  model.levels_ = levels_;
  for (WorkLevel& level : model.levels_) {
    // Zero-work threads skip their setup entirely in the kernels, so they
    // carry no memory cost either.
    if (level.work_per_thread > 0) {
      level.work_per_thread = per_combination * level.work_per_thread + per_thread;
    }
  }
  model.finalize();
  return model;
}

u64 WorkloadModel::work_at(u64 lambda) const noexcept {
  assert(lambda < total_threads_);
  // Last level whose first_lambda <= lambda.
  const auto it = std::upper_bound(
      levels_.begin(), levels_.end(), lambda,
      [](u64 value, const WorkLevel& level) { return value < level.first_lambda; });
  assert(it != levels_.begin());
  return std::prev(it)->work_per_thread;
}

u128 WorkloadModel::prefix_work(u64 lambda) const noexcept {
  if (lambda >= total_threads_) return total_work_;
  const auto it = std::upper_bound(
      levels_.begin(), levels_.end(), lambda,
      [](u64 value, const WorkLevel& level) { return value < level.first_lambda; });
  const auto idx = static_cast<std::size_t>(std::distance(levels_.begin(), it)) - 1;
  const WorkLevel& level = levels_[idx];
  return cumulative_work_[idx] + static_cast<u128>(lambda - level.first_lambda) *
                                     static_cast<u128>(level.work_per_thread);
}

u64 WorkloadModel::lambda_for_prefix(u128 target) const noexcept {
  if (target == 0) return 0;
  if (target >= total_work_) {
    // All positive-work threads are needed; zero-work tail threads are not.
    // Find the end of the last level with positive work.
    for (std::size_t idx = levels_.size(); idx > 0; --idx) {
      if (levels_[idx - 1].work_per_thread > 0) {
        return levels_[idx - 1].first_lambda + levels_[idx - 1].thread_count;
      }
    }
    return 0;
  }
  // First level whose *end* cumulative work reaches the target.
  const auto it =
      std::lower_bound(cumulative_work_.begin() + 1, cumulative_work_.end(), target);
  const auto idx = static_cast<std::size_t>(std::distance(cumulative_work_.begin() + 1, it));
  const WorkLevel& level = levels_[idx];
  const u128 before = cumulative_work_[idx];
  assert(level.work_per_thread > 0);
  const u128 needed = target - before;
  const u128 threads =
      (needed + level.work_per_thread - 1) / static_cast<u128>(level.work_per_thread);
  return level.first_lambda + static_cast<u64>(threads);
}

}  // namespace multihit
