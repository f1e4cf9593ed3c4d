#include "experiments/real_training.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace cannikin::experiments {

namespace {

dnn::TrainerOptions merge_options(const dnn::ZooEntry& entry, int num_nodes,
                                  dnn::TrainerOptions base) {
  base.num_nodes = num_nodes;
  base.task = entry.task;
  base.base_lr = entry.base_lr;
  base.lr_scaling = entry.lr_scaling;
  base.use_adam = entry.use_adam;
  base.initial_total_batch = entry.initial_total_batch;
  return base;
}

}  // namespace

RealTrainingDriver::RealTrainingDriver(TrainingSystem* system,
                                       const dnn::ZooEntry& entry,
                                       int num_nodes,
                                       dnn::TrainerOptions base)
    : system_(system),
      entry_(entry),
      trainer_(entry_.dataset.get(), entry_.factory,
               merge_options(entry_, num_nodes, base)) {
  if (system_ == nullptr) {
    throw std::invalid_argument("RealTrainingDriver: null system");
  }
}

RealEpochRow RealTrainingDriver::run_epoch() {
  const SystemPlan plan = system_->plan_epoch();
  if (plan.local_batches.empty()) {
    throw std::invalid_argument(
        "RealTrainingDriver: system planned no local batches (model-parallel "
        "plans cannot execute on the data-parallel trainer)");
  }
  if (static_cast<int>(plan.local_batches.size()) != trainer_.num_nodes()) {
    throw std::invalid_argument(
        "RealTrainingDriver: plan size does not match trainer nodes");
  }
  // The trainer runs one micro-batch of local_batches per step; a plan
  // it cannot execute as stated must not be reported as trained.
  if (plan.accumulation_steps > 1) {
    throw std::invalid_argument(
        "RealTrainingDriver: system planned gradient accumulation, which "
        "the trainer does not execute");
  }
  if (std::accumulate(plan.local_batches.begin(), plan.local_batches.end(),
                      0) != plan.total_batch) {
    throw std::invalid_argument(
        "RealTrainingDriver: local batches do not add up to the planned "
        "total batch");
  }

  const dnn::EpochResult result = trainer_.run_epoch(plan.local_batches);

  // The trainer's clocks produce exactly what the simulator's profiler
  // fabricates: per-node (b, a, p, gamma, T_o, T_u) plus epoch totals.
  sim::EpochObservation obs;
  obs.total_time = result.epoch_seconds;
  obs.num_batches = result.steps;
  obs.avg_batch_time =
      result.epoch_seconds / static_cast<double>(std::max(result.steps, 1));
  obs.nodes.resize(result.node_timings.size());
  for (std::size_t node = 0; node < result.node_timings.size(); ++node) {
    const dnn::NodePhaseTimings& timing = result.node_timings[node];
    sim::NodeObservation& node_obs = obs.nodes[node];
    node_obs.local_batch = plan.local_batches[node];
    node_obs.a = timing.a;
    node_obs.p = timing.p;
    node_obs.gamma = timing.gamma;
    node_obs.t_other = timing.t_other;
    node_obs.t_last = timing.t_last;
  }
  system_->observe_epoch(obs);
  system_->observe_gns(trainer_.current_gns());

  RealEpochRow row;
  row.epoch = epoch_++;
  row.total_batch = plan.total_batch;
  row.local_batches = plan.local_batches;
  row.mean_loss = result.mean_loss;
  row.train_accuracy = result.train_accuracy;
  row.gns = trainer_.current_gns();
  row.epoch_seconds = result.epoch_seconds;
  return row;
}

}  // namespace cannikin::experiments
