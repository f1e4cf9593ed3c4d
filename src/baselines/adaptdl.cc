#include "baselines/adaptdl.h"

#include <algorithm>
#include <stdexcept>

#include "core/optperf.h"

namespace cannikin::baselines {

AdaptDlSystem::AdaptDlSystem(int num_nodes, int initial_total_batch,
                             int max_total_batch,
                             std::vector<double> max_local_batches)
    : num_nodes_(num_nodes),
      initial_total_batch_(initial_total_batch),
      max_local_batches_(std::move(max_local_batches)),
      goodput_(initial_total_batch) {
  if (num_nodes <= 0) throw std::invalid_argument("AdaptDlSystem: bad nodes");
  // At least one sample per worker; the goodput anchor stays at B0.
  initial_total_batch_ = std::max(initial_total_batch_, num_nodes_);
  candidates_ = core::batch_size_candidates(
      initial_total_batch_, std::max(max_total_batch, initial_total_batch_),
      1.25);
}

std::vector<int> AdaptDlSystem::even_split(int total) const {
  const std::vector<double> even(
      static_cast<std::size_t>(num_nodes_),
      static_cast<double>(total) / num_nodes_);
  return core::round_batches(even, total, max_local_batches_);
}

double AdaptDlSystem::predict_time(int total_batch) const {
  auto exact = observed_.find(total_batch);
  if (exact != observed_.end()) return exact->second.first;

  if (observed_.empty()) return 0.0;
  if (observed_.size() == 1) {
    // One point: AdaptDL's throughput model knows batch time has a
    // fixed component (kernel launch, optimizer step, synchronization)
    // plus a per-sample component; before the linear fit is
    // identifiable, split the single observation evenly between them.
    const auto& [b, stat] = *observed_.begin();
    const double fixed = 0.5 * stat.first;
    const double per_sample = 0.5 * stat.first / b;
    return fixed + per_sample * total_batch;
  }
  if (!fit_) return observed_.rbegin()->second.first;
  const double predicted = fit_->slope * total_batch + fit_->intercept;
  return std::max(predicted, 1e-6);
}

experiments::SystemPlan AdaptDlSystem::plan_epoch() {
  int chosen = initial_total_batch_;
  if (!observed_.empty()) {
    chosen = core::select_batch_size(
        goodput_, gns_, candidates_,
        [this](int b) { return predict_time(b); });
    // AdaptDL adapts incrementally: bound the per-epoch growth so the
    // throughput model is refit near the operating point.
    if (planned_total_ > 0) chosen = std::min(chosen, 4 * planned_total_);
  }
  planned_total_ = chosen;

  experiments::SystemPlan plan;
  plan.total_batch = chosen;
  plan.local_batches = even_split(chosen);
  return plan;
}

void AdaptDlSystem::observe_epoch(const sim::EpochObservation& obs) {
  // AdaptDL observes the achieved batch time of the even split.
  double slowest = 0.0;
  double t_last = 0.0;
  for (const auto& node : obs.nodes) {
    slowest = std::max(slowest, node.a + node.p);
    t_last = std::max(t_last, node.t_last);
  }
  const double batch_time = std::max(obs.avg_batch_time, slowest + t_last);
  auto& [mean, count] = observed_[planned_total_];
  mean = (mean * count + batch_time) / (count + 1);
  ++count;

  fit_.reset();
  if (observed_.size() >= 2) {
    std::vector<double> xs, ys;
    for (const auto& [b, stat] : observed_) {
      xs.push_back(static_cast<double>(b));
      ys.push_back(stat.first);
    }
    fit_ = fit_line(xs, ys);
  }
}

}  // namespace cannikin::baselines
