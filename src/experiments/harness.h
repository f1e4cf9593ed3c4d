// Experiment harness: drives a TrainingSystem on a simulated cluster
// and workload until the workload's target progress is reached,
// recording the per-epoch trace every evaluation figure is built from.
//
// Epoch timing comes from the simulator (or the policy's analytic
// override for model parallelism); statistical progress follows the
// workload's efficiency model: an epoch at total batch B adds
// dataset_size * E(B, progress) effective samples. Per-epoch overhead
// is a modeled planning cost (the plan's OptPerf equation solves times
// a per-solve cost) plus a modeled reconfiguration cost (local batch +
// data index distribution), the same components Table 6 accounts.
// Nothing the harness charges reads a clock, so a seeded run replays
// bit-identically; the measured planning wall clock is still recorded.
//
// run_epoch_step is the one simulated epoch step: run_to_target loops
// over it on a fixed allocation, and sched::ElasticCannikinJob::run_epoch
// calls it on whatever allocation faults (sched::TrainingSupervisor) or
// the fleet scheduler left the job.
#pragma once

#include <string>
#include <vector>

#include "experiments/training_system.h"
#include "obs/scope.h"
#include "sim/cluster.h"
#include "workloads/registry.h"

namespace cannikin::experiments {

struct EpochRow {
  int epoch = 0;
  int total_batch = 0;
  std::vector<int> local_batches;
  double avg_batch_time = 0.0;  ///< true simulated batch time
  double epoch_seconds = 0.0;   ///< training time (no overhead)
  double overhead_seconds = 0.0;
  double planning_seconds = 0.0;    ///< measured policy planning wall clock
  int linear_solves = 0;            ///< OptPerf solver work spent planning
  double cumulative_seconds = 0.0;  ///< including overhead
  double progress_fraction = 0.0;   ///< after this epoch
  double gns = 0.0;
  double metric = 0.0;
};

struct RunTrace {
  std::string system;
  std::string workload;
  std::vector<EpochRow> epochs;
  double total_seconds = 0.0;
  /// Table-6 overhead accounting, summed over the run. The per-epoch
  /// values come straight from SystemPlan; before they were surfaced
  /// here an overhead analysis needed a second instrumented run.
  double planning_seconds = 0.0;
  long linear_solves = 0;
  bool reached_target = false;

  double final_metric() const {
    return epochs.empty() ? 0.0 : epochs.back().metric;
  }
};

/// Modeled wall clock of one OptPerf equation solve, charged to the
/// simulated clock per solve a plan reports (by run_to_target and by
/// sched::ElasticCannikinJob). Calibrated on Cannikin's
/// measured planning time: 0.9-11 us per solve (median ~5) over the
/// Table 5 workloads on clusters A/B/C (x86-64, RelWithDebInfo).
inline constexpr double kPlanningSecondsPerSolve = 5e-6;
/// Reconfiguration cost model (Table 6): per-sample data-index setup
/// and per-node configuration round trip, charged every epoch.
inline constexpr double kIndexSecondsPerSample = 20e-9;
inline constexpr double kConfigSecondsPerNode = 5e-3;
/// Cap on batches actually event-simulated per epoch; the epoch time is
/// scaled up from the simulated sample. Keeps long fixed-small-batch
/// baselines tractable without changing expected times.
inline constexpr int kMaxSimulatedBatches = 64;

struct HarnessOptions {
  int max_epochs = 1000;
  /// Multiplier on the modeled planning cost, linear_solves x
  /// kPlanningSecondsPerSolve (1.0 = as modeled, 0 = planning is free).
  double overhead_scale = 1.0;
  /// Observability scope: when metrics are attached the harness records
  /// harness.planning_seconds / harness.linear_solves counters and a
  /// harness.overhead_us histogram per epoch.
  obs::Scope obs;
};

/// One simulated epoch: feeds `system` the workload's GNS at
/// `*progress` effective samples, plans, simulates at most
/// kMaxSimulatedBatches optimizer steps on `job` (or takes the plan's
/// analytic batch time), feeds the observation back, advances
/// `*progress` by the epoch's effective samples and charges the modeled
/// overhead. Fills every EpochRow field except `epoch` and
/// `cumulative_seconds`; the epoch's simulated cost is
/// `epoch_seconds + overhead_seconds`.
EpochRow run_epoch_step(sim::ClusterJob& job,
                        const workloads::Workload& workload,
                        TrainingSystem& system, double* progress,
                        const HarnessOptions& options = {});

/// Runs `system` on `job` until `workload.target_progress()` effective
/// samples have accumulated or max_epochs elapse.
RunTrace run_to_target(sim::ClusterJob& job,
                       const workloads::Workload& workload,
                       TrainingSystem& system,
                       const HarnessOptions& options = {});

}  // namespace cannikin::experiments
