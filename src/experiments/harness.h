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
#pragma once

#include <string>
#include <vector>

#include "experiments/training_system.h"
#include "obs/scope.h"
#include "sim/cluster.h"
#include "sim/faults.h"
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
  std::string fault_note;  ///< fault events injected before this epoch
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

struct HarnessOptions {
  int max_epochs = 1000;
  /// Cap on batches actually event-simulated per epoch; the epoch time
  /// is scaled up from the simulated sample. Keeps long fixed-small-
  /// batch baselines tractable without changing expected times.
  int max_simulated_batches = 64;
  /// Reconfiguration cost model (Table 6): per-sample data-index setup
  /// and per-node configuration round trip.
  double index_cost_per_sample = 20e-9;
  double config_cost_per_node = 5e-3;
  /// Multiplier on the modeled planning cost, linear_solves x
  /// kPlanningSecondsPerSolve (1.0 = as modeled, 0 = planning is free).
  double overhead_scale = 1.0;
  /// Observability scope: when metrics are attached the harness records
  /// harness.planning_seconds / harness.linear_solves counters and a
  /// harness.overhead_us histogram per epoch.
  obs::Scope obs;
};

/// Runs `system` on `job` until `workload.target_progress()` effective
/// samples have accumulated or max_epochs elapse.
RunTrace run_to_target(sim::ClusterJob& job,
                       const workloads::Workload& workload,
                       TrainingSystem& system,
                       const HarnessOptions& options = {});

/// Same loop, but applies `injector`'s contention/network fault events
/// to `job` at the start of each epoch (recorded in the trace's
/// fault_note column). Crash events cannot be honoured on a fixed
/// allocation -- this harness logs and skips them; use
/// sched::run_with_faults for failure-driven elastic recovery.
RunTrace run_to_target_with_faults(sim::ClusterJob& job,
                                   const workloads::Workload& workload,
                                   TrainingSystem& system,
                                   const sim::FaultInjector& injector,
                                   const HarnessOptions& options = {});

}  // namespace cannikin::experiments
