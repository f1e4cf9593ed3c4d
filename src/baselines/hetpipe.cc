#include "baselines/hetpipe.h"

#include "baselines/pipeline_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cannikin::baselines {

HetPipeSystem::HetPipeSystem(const sim::ClusterJob* job, int total_batch,
                             int micro_batch, double stage_overhead)
    : job_(job),
      total_batch_(total_batch),
      micro_batch_(micro_batch),
      stage_overhead_(stage_overhead) {
  if (job == nullptr || total_batch <= 0 || micro_batch <= 0 ||
      stage_overhead < 0.0) {
    throw std::invalid_argument("HetPipeSystem: bad arguments");
  }
}

double HetPipeSystem::per_sample_stage() const {
  const int n = job_->size();
  std::vector<double> speeds;
  for (int i = 0; i < n; ++i) speeds.push_back(job_->speed(i));
  if (speeds == memo_speeds_) return memo_stage_;

  // Partition a synthetic per-layer cost profile of the model across
  // the nodes with the exact min-max DP; HetPipe also optimizes stage
  // placement, approximated here by trying ascending, descending and
  // natural node orders and keeping the best.
  const auto& profile = job_->job();
  const double w_sample = profile.per_sample_forward +
                          profile.per_sample_load +
                          profile.per_sample_backward;
  const auto layer_costs = synthetic_layer_costs(std::max(48, 3 * n),
                                                 w_sample);
  double best = std::numeric_limits<double>::infinity();
  for (int order = 0; order < 3; ++order) {
    std::vector<double> ordered = speeds;
    if (order == 1) std::sort(ordered.begin(), ordered.end());
    if (order == 2) std::sort(ordered.rbegin(), ordered.rend());
    best = std::min(best,
                    partition_pipeline(layer_costs, ordered).max_stage_time);
  }
  memo_speeds_ = std::move(speeds);
  memo_stage_ = best;
  return best;
}

double HetPipeSystem::batch_time() const {
  const int n = job_->size();
  const auto& profile = job_->job();
  const double stage_time = per_sample_stage() * micro_batch_;

  const int micro_batches = std::max(
      1, (total_batch_ + micro_batch_ - 1) / micro_batch_);

  // Activation transfer between consecutive stages: one layer's output
  // for a micro-batch crosses each boundary, roughly the per-sample
  // activation footprint divided by the layer count (~50 for the
  // evaluated models). Transfers on different links overlap with the
  // compute of the stages, so a pipeline step costs the max of the two.
  const double activation_bytes =
      profile.mem_bytes_per_sample / 50.0 * micro_batch_;
  const double transfer =
      activation_bytes / job_->cluster().network.bandwidth_bytes_per_s +
      job_->cluster().network.latency_s;

  // Every pipeline step additionally pays a per-stage driving cost
  // (kernel launch, activation hand-off) regardless of model size --
  // the overhead that makes pipelining small models inefficient.
  return (micro_batches + n - 1) *
         (std::max(stage_time, transfer) + stage_overhead_);
}

experiments::SystemPlan HetPipeSystem::plan_epoch() {
  experiments::SystemPlan plan;
  plan.total_batch = total_batch_;
  plan.batch_time_override = batch_time();
  return plan;
}

void HetPipeSystem::observe_epoch(const sim::EpochObservation& obs) {
  (void)obs;  // analytic policy; nothing to learn
}

}  // namespace cannikin::baselines
