#include "experiments/harness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.h"

namespace cannikin::experiments {

namespace {

RunTrace run_loop(sim::ClusterJob& job, const workloads::Workload& workload,
                  TrainingSystem& system, const sim::FaultInjector* injector,
                  const HarnessOptions& options) {
  RunTrace trace;
  trace.system = system.name();
  trace.workload = workload.name;

  const double target = workload.target_progress();
  double progress = 0.0;
  double clock = 0.0;

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    std::string fault_note;
    if (injector != nullptr) {
      const auto crashes = injector->apply_due(epoch, job);
      for (const auto& event : injector->due(epoch)) {
        if (event.kind == sim::FaultKind::kNodeCrash) continue;
        if (!fault_note.empty()) fault_note += "; ";
        fault_note += event.describe();
      }
      for (const auto& crash : crashes) {
        LOG_WARN << "run_to_target_with_faults: ignoring " << crash.describe()
                 << " (fixed allocation; use sched::run_with_faults)";
      }
    }
    system.observe_gns(workload.gns_at(progress / target));

    const SystemPlan plan = system.plan_epoch();
    if (plan.total_batch <= 0) {
      throw std::runtime_error("harness: policy produced empty batch");
    }
    const int num_batches = static_cast<int>(
        (workload.dataset_size + static_cast<std::size_t>(plan.total_batch) -
         1) /
        static_cast<std::size_t>(plan.total_batch));

    EpochRow row;
    row.epoch = epoch;
    row.total_batch = plan.total_batch;
    row.local_batches = plan.local_batches;

    if (plan.batch_time_override > 0.0) {
      row.avg_batch_time = plan.batch_time_override;
      row.epoch_seconds = plan.batch_time_override * num_batches;
    } else {
      const int simulated =
          std::min(num_batches, std::max(options.max_simulated_batches, 1));
      const sim::EpochObservation obs = job.run_epoch(
          plan.local_batches, simulated, plan.accumulation_steps);
      system.observe_epoch(obs);
      row.avg_batch_time = obs.avg_batch_time;
      row.epoch_seconds = obs.avg_batch_time * num_batches;
    }

    row.overhead_seconds =
        plan.linear_solves * kPlanningSecondsPerSolve *
            options.overhead_scale +
        options.index_cost_per_sample *
            static_cast<double>(workload.dataset_size) +
        options.config_cost_per_node * job.size();
    row.planning_seconds = plan.planning_seconds;
    row.linear_solves = plan.linear_solves;
    trace.planning_seconds += plan.planning_seconds;
    trace.linear_solves += plan.linear_solves;
    if (options.obs.metrics() != nullptr) {
      options.obs.counter_add("harness.planning_seconds",
                              plan.planning_seconds);
      options.obs.counter_add("harness.linear_solves",
                              static_cast<double>(plan.linear_solves));
      options.obs.observe("harness.overhead_us", row.overhead_seconds * 1e6);
    }

    clock += row.epoch_seconds + row.overhead_seconds;

    // Statistical progress of the epoch under the efficiency model,
    // evaluated at the epoch's starting progress point.
    const double efficiency =
        workload.efficiency(plan.total_batch, progress / target);
    progress += static_cast<double>(workload.dataset_size) * efficiency;

    row.cumulative_seconds = clock;
    row.progress_fraction = std::min(progress / target, 1.0);
    row.gns = workload.gns_at(row.progress_fraction);
    row.metric = workload.metric_at(row.progress_fraction);
    row.fault_note = std::move(fault_note);
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

}  // namespace

RunTrace run_to_target(sim::ClusterJob& job,
                       const workloads::Workload& workload,
                       TrainingSystem& system, const HarnessOptions& options) {
  return run_loop(job, workload, system, nullptr, options);
}

RunTrace run_to_target_with_faults(sim::ClusterJob& job,
                                   const workloads::Workload& workload,
                                   TrainingSystem& system,
                                   const sim::FaultInjector& injector,
                                   const HarnessOptions& options) {
  return run_loop(job, workload, system, &injector, options);
}

}  // namespace cannikin::experiments
