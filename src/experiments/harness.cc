#include "experiments/harness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.h"

namespace cannikin::experiments {

EpochRow run_epoch_step(sim::ClusterJob& job,
                        const workloads::Workload& workload,
                        TrainingSystem& system, double* progress,
                        const HarnessOptions& options) {
  const double target = workload.target_progress();
  system.observe_gns(workload.gns_at(*progress / target));

  const SystemPlan plan = system.plan_epoch();
  if (plan.total_batch <= 0) {
    throw std::runtime_error("harness: policy produced empty batch");
  }
  const int num_batches = static_cast<int>(
      (workload.dataset_size + static_cast<std::size_t>(plan.total_batch) -
       1) /
      static_cast<std::size_t>(plan.total_batch));

  EpochRow row;
  row.total_batch = plan.total_batch;
  row.local_batches = plan.local_batches;

  if (plan.batch_time_override > 0.0) {
    row.avg_batch_time = plan.batch_time_override;
    row.epoch_seconds = plan.batch_time_override * num_batches;
  } else {
    const int simulated = std::min(num_batches, kMaxSimulatedBatches);
    const sim::EpochObservation obs =
        job.run_epoch(plan.local_batches, simulated, plan.accumulation_steps);
    system.observe_epoch(obs);
    row.avg_batch_time = obs.avg_batch_time;
    row.epoch_seconds = obs.avg_batch_time * num_batches;
  }

  row.overhead_seconds =
      plan.linear_solves * kPlanningSecondsPerSolve * options.overhead_scale +
      kIndexSecondsPerSample * static_cast<double>(workload.dataset_size) +
      kConfigSecondsPerNode * job.size();
  row.planning_seconds = plan.planning_seconds;
  row.linear_solves = plan.linear_solves;
  if (options.obs.metrics() != nullptr) {
    options.obs.counter_add("harness.planning_seconds", plan.planning_seconds);
    options.obs.counter_add("harness.linear_solves",
                            static_cast<double>(plan.linear_solves));
    options.obs.observe("harness.overhead_us", row.overhead_seconds * 1e6);
  }

  // Statistical progress of the epoch under the efficiency model,
  // evaluated at the epoch's starting progress point.
  const double efficiency =
      workload.efficiency(plan.total_batch, *progress / target);
  *progress += static_cast<double>(workload.dataset_size) * efficiency;

  row.progress_fraction = std::min(*progress / target, 1.0);
  row.gns = workload.gns_at(row.progress_fraction);
  row.metric = workload.metric_at(row.progress_fraction);
  return row;
}

RunTrace run_to_target(sim::ClusterJob& job,
                       const workloads::Workload& workload,
                       TrainingSystem& system, const HarnessOptions& options) {
  RunTrace trace;
  trace.system = system.name();
  trace.workload = workload.name;

  const double target = workload.target_progress();
  double progress = 0.0;
  double clock = 0.0;

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    EpochRow row = run_epoch_step(job, workload, system, &progress, options);
    row.epoch = epoch;
    trace.planning_seconds += row.planning_seconds;
    trace.linear_solves += row.linear_solves;
    clock += row.epoch_seconds + row.overhead_seconds;
    row.cumulative_seconds = clock;
    trace.epochs.push_back(std::move(row));

    if (progress >= target) {
      trace.reached_target = true;
      break;
    }
  }

  trace.total_seconds = clock;
  if (!trace.reached_target) {
    LOG_WARN << "run_to_target: " << system.name() << " on " << workload.name
             << " did not reach target in " << options.max_epochs
             << " epochs";
  }
  return trace;
}

}  // namespace cannikin::experiments
