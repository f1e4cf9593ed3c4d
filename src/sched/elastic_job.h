// An elastic Cannikin training job: survives resource reallocations.
//
// The paper notes that existing data/model-parallel heterogeneous
// systems "cannot manage the sudden changes of resources that occur in
// clusters with dynamic resource allocation" (Section 1) and that
// Cannikin "supports job schedulers that allocate a heterogeneous
// cluster for each job" (Section 6). ElasticCannikinJob realizes this:
// on every set_allocation() it banks the models learned so far (per
// GPU/host type) and warm-starts a fresh controller over the new node
// set, so only nodes of genuinely unseen types pay bootstrap epochs.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/checkpoint.h"
#include "experiments/cannikin_system.h"
#include "sched/model_bank.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "workloads/registry.h"

namespace cannikin::sched {

struct Checkpoint;

/// Record of one handled fault event (observability for benches/tests).
struct RecoveryReport {
  int epoch = 0;  ///< epochs_run() when the fault was handled
  sim::FaultEvent event;
  bool warm = false;  ///< crash only: survivors fully covered by the bank
  double overhead_seconds = 0.0;  ///< modeled restart/reconfig cost
  /// Scheduler-initiated preemption, not a fault: recovery_metrics()
  /// must not report it as a fault onset. `event` is meaningless when
  /// set.
  bool preemption = false;
};

class ElasticCannikinJob {
 public:
  ElasticCannikinJob(const workloads::Workload* workload,
                     sim::ClusterSpec full_cluster, sim::NoiseConfig noise,
                     std::uint64_t seed, bool use_model_bank = true);

  /// Reassigns the job to the given node indices of the full cluster.
  /// Banks the current allocation's learned models first.
  void set_allocation(const std::vector<int>& node_ids);

  bool has_allocation() const { return system_ != nullptr; }
  const std::vector<int>& allocation() const { return allocation_; }

  /// Runs one training epoch -- the harness's experiments::run_epoch_step
  /// on the live allocation -- and returns its simulated seconds
  /// (training + modeled overhead + any pending recovery cost).
  /// Requires an allocation.
  double run_epoch();

  double progress_fraction() const;
  bool done() const { return progress_fraction() >= 1.0; }
  int epochs_run() const { return epochs_; }
  double current_gns() const;
  const workloads::Workload& workload() const { return *workload_; }
  const ModelBank& bank() const { return bank_; }

  /// Number of reallocations whose nodes were fully covered by banked
  /// models (no bootstrap needed) -- observability for tests/benches.
  int warm_reallocations() const { return warm_reallocations_; }

  /// Failure-driven recovery: applies one fault event to the live job.
  ///  - node crash: banks the survivors' learned models, shrinks the
  ///    allocation to the remaining nodes and warm-starts the
  ///    controller on them (nodes of already-seen types skip the
  ///    bootstrap epochs); throws std::runtime_error if the last node
  ///    dies. The modeled restart cost is charged to the next
  ///    run_epoch().
  ///  - straggler / slowdown: the node's contention changes in place
  ///    (and persists across future reallocations); drift detection in
  ///    the perf model triggers re-learning without a restart.
  ///  - network degrade: the interconnect's bandwidth scale changes
  ///    (and persists across future reallocations).
  ///  - network partition: onset (`severity` < 1) shrinks the
  ///    allocation to the nodes outside `event.partition` (far cheaper
  ///    than a crash restart); the heal marker (`severity` >= 1)
  ///    re-admits them warm.
  ///  - link flaky: effective network throughput scales by
  ///    (1 - severity), the expected retransmission overhead of
  ///    retry-on-drop; severity 0 restores healthy links.
  ///  - checkpoint corrupt: no-op on the live job (the supervisor
  ///    damages the store); recorded for trace continuity.
  ///  - node recover: the node re-joins at contention `severity`; the
  ///    allocation grows back (survivors keep their ranks, the node is
  ///    appended) and the controller warm-starts from the banked
  ///    per-type models, so an already-seen type pays no bootstrap
  ///    epochs. Re-admitting a node already in the allocation is a
  ///    no-op beyond the contention update.
  /// `event.node` is an index into the *full* cluster; events for
  /// nodes outside the current allocation only update the full-cluster
  /// spec. Returns the recovery report recorded for the event.
  const RecoveryReport& apply_fault(const sim::FaultEvent& event);

  /// Captures a restorable snapshot: progress, allocation, accumulated
  /// cluster damage, counters, the model bank (including the live
  /// controller's still-unbanked models) and the controller's learned
  /// state. Requires an allocation.
  Checkpoint make_checkpoint() const;

  /// Restores a freshly constructed job (no allocation yet) from a
  /// checkpoint, excluding `exclude_nodes` (nodes known dead at restore
  /// time) from the checkpointed allocation. The controller warm-starts
  /// from the checkpoint's bank/learned state, so no bootstrap epochs
  /// are re-paid. Throws std::runtime_error when every checkpointed
  /// node is excluded and std::logic_error when already allocated.
  void restore_from_checkpoint(const Checkpoint& ckpt,
                               const std::vector<int>& exclude_nodes = {});

  /// Migration restore: like restore_from_checkpoint, but places the
  /// job on `node_ids` instead of the checkpointed node set (the fleet
  /// scheduler preempted the job and is resuming it on different
  /// hardware). Nodes whose hardware type the checkpointed bank has
  /// seen warm-start with zero bootstrap epochs, exactly as in the
  /// same-node path.
  void restore_to_allocation(const Checkpoint& ckpt,
                             const std::vector<int>& node_ids);

  int crash_recoveries() const { return crash_recoveries_; }
  /// Nodes re-admitted via kNodeRecover events.
  int node_rejoins() const { return node_rejoins_; }
  /// Partition onsets handled as elastic shrinks (kNetworkPartition).
  int partition_shrinks() const { return partition_shrinks_; }
  /// Nodes currently excluded by an unhealed partition.
  const std::vector<int>& partitioned_nodes() const {
    return partitioned_nodes_;
  }
  const std::vector<RecoveryReport>& recoveries() const { return recoveries_; }
  /// Total modeled fault-recovery overhead charged so far (seconds).
  double recovery_overhead_seconds() const { return recovery_overhead_; }
  /// Drift resets fired by the current controller (stragglers).
  int drift_resets() const;

 private:
  /// Shared body of the two restore entry points.
  void restore_impl(const Checkpoint& ckpt,
                    const std::vector<int>& allocation);
  void bank_current_models();
  /// Copy of the bank with the live controller's models merged in --
  /// what bank_current_models() would produce, without mutating state.
  ModelBank banked_snapshot() const;
  /// set_allocation body with an explicit GNS carry and an optional
  /// restored controller state used when the bank cannot cover the
  /// nodes (e.g. the bank is disabled).
  void apply_allocation(const std::vector<int>& node_ids, double gns_carry,
                        const core::ControllerState* restored);
  int local_index(int node_id) const;  ///< -1 if not in the allocation

  const workloads::Workload* workload_;
  sim::ClusterSpec full_cluster_;
  sim::NoiseConfig noise_;
  std::uint64_t seed_;
  bool use_model_bank_;

  std::vector<int> allocation_;
  std::unique_ptr<sim::ClusterJob> job_;
  std::unique_ptr<experiments::CannikinSystem> system_;

  ModelBank bank_;
  double progress_ = 0.0;
  int epochs_ = 0;
  int warm_reallocations_ = 0;

  double network_scale_ = 1.0;  ///< persists across reallocations
  int crash_recoveries_ = 0;
  int node_rejoins_ = 0;
  int partition_shrinks_ = 0;
  std::vector<int> partitioned_nodes_;  ///< cut off, awaiting heal
  double recovery_overhead_ = 0.0;
  double pending_recovery_overhead_ = 0.0;  ///< charged to next run_epoch
  std::vector<RecoveryReport> recoveries_;
};

}  // namespace cannikin::sched
