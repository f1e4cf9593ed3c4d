// TrainingSupervisor: the crash-durable runtime around an elastic job,
// and the repo's one fault loop (run()).
//
// ElasticCannikinJob::apply_fault shrinks on a crash but keeps all
// training state in process memory -- realistic only while the process
// itself survives (CrashPolicy::kDiscardEpoch). The supervisor closes
// that gap the way production elastic trainers (torchelastic agents,
// k8s operators) do:
//
//   * periodic checkpointing on a configurable cadence through a
//     CheckpointStore (atomic writes, keep-last-K);
//   * on a node crash the whole training process is presumed dead: the
//     job object is discarded and rebuilt from the latest good
//     checkpoint, excluding nodes known dead. Restore attempts are
//     bounded and exponentially backed off; when the budget is
//     exhausted the supervisor gives up cleanly (reported, not thrown);
//   * a kNodeRecover fault re-admits the node: the allocation grows
//     back, the process group is rebuilt and the newcomer warm-starts
//     from the banked per-type models -- zero bootstrap epochs;
//   * checkpoint write and restore costs are *measured* wall-clock
//     seconds (plus the policy's backoff waits), charged into the
//     recovery trace, so disc_fault_recovery reports real restart
//     overhead instead of a modeled constant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/scope.h"
#include "sched/checkpoint.h"
#include "sched/elastic_job.h"
#include "sched/fault_recovery.h"
#include "sim/faults.h"
#include "workloads/registry.h"

namespace cannikin::sched {

/// What the supervisor does when a node crash kills the job.
enum class CrashPolicy {
  /// The process died: rebuild the job from the latest checkpoint
  /// (measured restore cost, bounded retries with backoff).
  kCheckpointRestore,
  /// In-process recovery (ElasticCannikinJob::apply_fault): the
  /// in-flight epoch is discarded but in-memory state survives; modeled
  /// overhead. With checkpoint_every_epochs <= 0 only the epoch-0
  /// checkpoint is written and nothing is charged for checkpoints.
  kDiscardEpoch,
};

struct SupervisorOptions {
  std::string checkpoint_dir;
  /// Checkpoint every N completed epochs; <= 0 disables periodic
  /// checkpoints (an initial epoch-0 checkpoint is still written so a
  /// first-epoch crash has something to restore).
  int checkpoint_every_epochs = 5;
  int keep_last = 3;
  CrashPolicy crash_policy = CrashPolicy::kCheckpointRestore;
  /// Bounded restore retries; after this many failed attempts for one
  /// crash the supervisor gives up cleanly.
  int max_restore_attempts = 3;
  double backoff_initial_seconds = 0.5;
  double backoff_multiplier = 2.0;
  /// Observability scope. The supervisor rebinds it to its own timeline
  /// row (obs::kSupervisorTid) and emits fault / checkpoint_write /
  /// restore / rejoin instants plus sched.* metrics.
  obs::Scope obs;
};

class TrainingSupervisor {
 public:
  TrainingSupervisor(const workloads::Workload* workload,
                     sim::ClusterSpec full_cluster, sim::NoiseConfig noise,
                     std::uint64_t seed, SupervisorOptions options,
                     bool use_model_bank = true);

  /// Creates the supervised job on the given allocation and writes the
  /// initial checkpoint.
  void start(const std::vector<int>& allocation);

  ElasticCannikinJob& job();
  const ElasticCannikinJob& job() const;
  bool has_job() const { return job_ != nullptr; }
  const SupervisorStats& stats() const { return stats_; }
  const SupervisorOptions& options() const { return options_; }
  CheckpointStore& store() { return store_; }

  /// The fault loop: runs the job for up to `max_epochs` (or until
  /// done), applying `injector`'s schedule before each epoch. A crash
  /// under kCheckpointRestore kills the job and restores it from the
  /// latest checkpoint with bounded, backed-off retries; under
  /// kDiscardEpoch the job shrinks in process. kNodeRecover events
  /// re-admit dead nodes, and every other kind goes to
  /// ElasticCannikinJob::apply_fault. Measured restore and backoff
  /// costs are billed to the next epoch row and cadence checkpoint
  /// writes to the total, so the throughput dips reflect real restart
  /// overhead. Requires start().
  FaultRecoveryTrace run(const sim::FaultInjector& injector, int max_epochs);

  // -- fleet-facing driving API --------------------------------------
  // The FleetSim event loop advances jobs one epoch at a time instead
  // of using run(), and preempts/migrates them between epochs.

  /// Writes a checkpoint now; returns measured wall-clock seconds.
  double checkpoint_now();

  /// Bumps the epoch-since-checkpoint counter and writes a cadence
  /// checkpoint when due; returns the measured write seconds (0.0 when
  /// no checkpoint was due). Call once per committed epoch when driving
  /// the job directly.
  double note_epoch_committed();

  /// Scheduler-initiated preemption: tears the live job down WITHOUT
  /// checkpointing -- a preemption can strike mid-epoch, when the
  /// in-memory state is ahead of what durably happened, so the job must
  /// resume from its last sched::Checkpoint and any epochs committed
  /// since are rolled back (counted in epochs_lost_to_preemption).
  /// Counted as a preemption, not a fault/crash.
  void preempt();

  /// Resumes a preempted job on `allocation` (possibly different nodes
  /// = migration) from the latest durable checkpoint. The controller
  /// warm-starts from the checkpointed bank/learned state, so no
  /// bootstrap epochs are re-paid. Returns measured restore wall-clock
  /// seconds. Throws std::logic_error when not preempted and
  /// std::runtime_error when no usable checkpoint exists.
  double resume(const std::vector<int>& allocation);

  bool preempted() const { return preempted_; }
  int epochs_since_checkpoint() const { return epochs_since_checkpoint_; }
  /// One report per preempt() call, `preemption` flag set; appended to
  /// run() traces so preemptions stay visible without being
  /// mistaken for fault onsets by recovery_metrics().
  const std::vector<RecoveryReport>& preemption_reports() const {
    return preemption_reports_;
  }

  /// Test hook, called once per restore attempt (before any file I/O);
  /// throwing simulates the replacement process failing to come up and
  /// consumes one retry.
  void set_restore_fault_hook(std::function<void(int attempt)> hook) {
    restore_fault_hook_ = std::move(hook);
  }

 private:
  /// Kills and restores the job after a crash at harness epoch `epoch`;
  /// returns false when the retry budget is exhausted (supervisor gives
  /// up). Measured restore and backoff seconds are added to
  /// `*charged_seconds` (billed to the next epoch row) and a synthetic
  /// RecoveryReport is appended to `trace->recoveries`.
  bool handle_crash(const sim::FaultEvent& event, int epoch,
                    FaultRecoveryTrace* trace, double* charged_seconds);

  const workloads::Workload* workload_;
  sim::ClusterSpec full_cluster_;
  sim::NoiseConfig noise_;
  std::uint64_t seed_;
  bool use_model_bank_;
  SupervisorOptions options_;
  obs::Scope obs_;  ///< options_.obs bound to the supervisor row
  CheckpointStore store_;

  std::unique_ptr<ElasticCannikinJob> job_;
  std::vector<int> dead_nodes_;
  int epochs_since_checkpoint_ = 0;
  int last_checkpoint_epochs_ = 0;  ///< epochs_run() at the last write
  bool preempted_ = false;
  SupervisorStats stats_;
  std::vector<RecoveryReport> preemption_reports_;
  std::function<void(int)> restore_fault_hook_;
};

}  // namespace cannikin::sched
