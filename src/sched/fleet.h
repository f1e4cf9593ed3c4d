// FleetSim: the mechanism half of the fleet scheduler.
//
// A multi-tenant, discrete-event fleet simulation: a heterogeneous
// node pool shared by jobs that arrive over virtual time (trace- or
// Poisson-driven), each a JobSpec with priority, its own convergence
// target and a minimum useful allocation. The event loop (built on
// sim::EventQueue, so same-seed runs replay bit-identically) owns all
// execution machinery:
//
//   * placement changes come from a SchedulingPolicy (policy.h) as
//     whole-cluster target Allocations; FleetSim diffs them against
//     the live allocation and executes the delta;
//   * grow/shrink of a running job is an ElasticCannikinJob
//     reallocation (banked models warm-start the new node set). A
//     resize decided while the job has an epoch in flight is deferred
//     to that epoch's boundary; decisions for idle jobs apply at once;
//   * full eviction is a preemption through the TrainingSupervisor:
//     the live process is torn down WITHOUT a checkpoint (preemptions
//     strike mid-epoch, when in-memory state is ahead of durable
//     state) and later resumed -- possibly on different nodes -- from
//     its last sched::Checkpoint with zero bootstrap epochs. Epochs
//     committed since that checkpoint are rolled back, which is how
//     preemption cost becomes an emergent JCT cost rather than a
//     modeled constant;
//   * checkpoint cadence runs through the supervisor's CheckpointStore
//     (atomic writes, CRC, keep-last-K); wall-clock write/restore
//     costs are *measured* and reported under `measured_*` metric
//     names. Virtual time stays deterministic: the policy-facing
//     preemption cost and the virtual-time resume penalty use the
//     fixed FleetOptions::preemption_cost_seconds (calibrate it from
//     the measured_* outputs of prior runs).
//
// With FleetOptions::obs attached, FleetSim records
//   fleet.policy_decision_us  histogram, wall clock of each policy call
//   fleet.queue_length        gauge, jobs waiting for nodes after each
//                             scheduling point (queued + preempted)
//   fleet.preemptions         counter
//   fleet.checkpoint_bytes    counter, checkpoint bytes each job wrote,
//                             added when the job retires
// Without it (the default) none of this is measured.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/temp_dir.h"
#include "obs/scope.h"
#include "sched/allocation.h"
#include "sched/policy.h"
#include "sched/supervisor.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"

namespace cannikin::sched {

struct FleetOptions {
  bool use_model_bank = true;
  /// Per-job committed-epoch budget; a job that exhausts it is retired
  /// unfinished. Must be >= 1.
  int max_epochs_per_job = 3000;
  std::uint64_t seed = 1;
  sim::NoiseConfig noise;
  /// Fire SchedulingPolicy::on_rebalance_tick every this many virtual
  /// seconds while jobs remain; 0 disables ticks (arrival/finish
  /// events still reschedule).
  double rebalance_interval_seconds = 0.0;
  /// Checkpoint a running job every N committed epochs; 0 keeps only
  /// the epoch-0 checkpoint each start/resume writes.
  int checkpoint_every_epochs = 0;
  /// Root directory for per-job checkpoint stores, wiped up front;
  /// empty uses a fresh mkdtemp directory under the system temp dir,
  /// removed with the FleetSim.
  std::string checkpoint_root;
  /// Modeled cost of one preemption (checkpoint rollback + restore) in
  /// virtual seconds: charged to a resumed job's next epoch and handed
  /// to policies as FleetState::preemption_cost_seconds so their
  /// evict-or-pin rule weighs marginal goodput against it. Fixed so
  /// virtual-time metrics stay deterministic; calibrate from the
  /// measured_* wall-clock metrics of prior runs.
  double preemption_cost_seconds = 30.0;
  /// Observability scope for the fleet.* metrics listed above;
  /// disabled by default.
  obs::Scope obs;
};

/// One entry of an arrival trace.
struct JobArrival {
  JobSpec spec;
  double time = 0.0;  ///< virtual submission time, >= 0
};

/// Poisson arrival process over `specs` (kept in order): exponential
/// inter-arrival gaps with the given mean, deterministic in `seed`.
std::vector<JobArrival> poisson_arrivals(std::vector<JobSpec> specs,
                                         double mean_interarrival_seconds,
                                         std::uint64_t seed);

struct FleetJobOutcome {
  std::string name;
  std::string workload;
  double arrival_time = 0.0;
  double start_time = -1.0;   ///< first dispatch; -1 = never started
  double finish_time = -1.0;  ///< retirement time; -1 = never finished
  double completion_seconds = 0.0;  ///< JCT: finish - arrival
  double queueing_delay = 0.0;      ///< start - arrival
  bool completed = false;  ///< reached its target_fraction
  int epochs = 0;          ///< committed epochs at retirement
  int reallocations = 0;   ///< live grow/shrink reconfigurations
  int warm_reallocations = 0;
  int preemptions = 0;
  double effective_samples = 0.0;  ///< progress * own target samples
};

struct FleetResult {
  std::string policy;
  std::vector<FleetJobOutcome> jobs;
  double makespan = 0.0;  ///< virtual time when the last job retired
  // JCT stats over *completed* jobs (0 when none completed).
  double mean_jct = 0.0;
  double p50_jct = 0.0;
  double p90_jct = 0.0;
  double p99_jct = 0.0;
  double mean_queueing_delay = 0.0;  ///< over jobs that ever started
  /// Total effective samples trained across the fleet per virtual
  /// second of makespan -- the fleet-level goodput (Pollux objective).
  double fleet_goodput = 0.0;
  int completed_jobs = 0;
  int preemptions = 0;
  /// Modeled virtual seconds charged for preemption resumes.
  double preemption_overhead_seconds = 0.0;
  int epochs_lost_to_preemption = 0;
  int checkpoints_written = 0;
  // Measured wall-clock (nondeterministic; excluded from determinism
  // comparisons, reported as measured_* metrics).
  double measured_checkpoint_write_seconds = 0.0;
  double measured_restore_seconds = 0.0;

  /// Flat (name, value) metric view for benches and determinism tests.
  /// Nondeterministic wall-clock entries are prefixed `measured_`;
  /// everything else is a pure function of (trace, policy, options).
  std::vector<std::pair<std::string, double>> metrics() const;
};

/// Discrete-event fleet simulator; see file comment for semantics.
/// Usage: construct, submit() the arrival trace, run() once.
class FleetSim {
 public:
  /// Throws std::invalid_argument on an empty cluster, null policy,
  /// max_epochs_per_job < 1, or negative durations.
  FleetSim(sim::ClusterSpec cluster, std::unique_ptr<SchedulingPolicy> policy,
           FleetOptions options = {});
  ~FleetSim();

  /// Admits one job; returns its id. Throws std::invalid_argument when
  /// the spec fails JobSpec::validate(), its min_nodes exceed the
  /// cluster, or arrival_time is negative; std::logic_error after
  /// run().
  JobId submit(JobSpec spec, double arrival_time = 0.0);
  void submit(const std::vector<JobArrival>& trace);

  /// Runs the fleet to completion (all jobs retired). Single-shot.
  FleetResult run();

  const Allocation& allocation() const { return allocation_; }
  double now() const { return now_; }
  const std::string& checkpoint_root() const { return checkpoint_root_; }

 private:
  enum class JobState { kPending, kQueued, kRunning, kPreempted, kDone };
  enum class EventKind { kArrival, kEpochEnd, kRebalanceTick };
  struct Event {
    EventKind kind = EventKind::kArrival;
    JobId job = kNoJob;
    /// EpochEnd events carry the dispatching generation; a preemption
    /// or teardown bumps the job's counter, turning in-flight epoch
    /// ends stale so the aborted epoch never commits.
    std::uint64_t generation = 0;
  };
  struct JobRecord {
    JobSpec spec;
    double arrival_time = 0.0;
    JobState state = JobState::kPending;
    std::unique_ptr<TrainingSupervisor> supervisor;
    std::uint64_t generation = 0;
    bool epoch_in_flight = false;
    /// Resize decided mid-epoch, applied at the next epoch boundary.
    std::vector<int> pending_nodes;
    bool has_pending_resize = false;
    /// Modeled resume penalty charged to the next dispatched epoch.
    double pending_delay = 0.0;
    // Durably committed training state, refreshed at epoch boundaries
    // and on resume (which rolls it back to the restored checkpoint).
    // Policies see these, never the eagerly-advanced in-memory job.
    double committed_progress = 0.0;  ///< workload-level fraction
    double committed_gns = 0.0;
    int committed_epochs = 0;
    FleetJobOutcome outcome;
  };

  FleetState snapshot() const;
  void consult_policy(const FleetState& state, EventKind trigger,
                      JobId subject);
  void execute_target(const Allocation& target);
  void start_job(JobId id, const std::vector<int>& nodes);
  void resume_job(JobId id, const std::vector<int>& nodes);
  void preempt_job(JobId id);
  void resize_job(JobId id, const std::vector<int>& nodes);
  void retire_job(JobId id);
  void dispatch_idle_jobs();
  void commit_epoch(JobId id);
  /// Folds a job's supervisor stats into the fleet totals and drops
  /// the supervisor.
  void absorb_supervisor(JobRecord& job);
  int unfinished_jobs() const;
  JobRecord& record(JobId id);

  sim::ClusterSpec cluster_;
  std::unique_ptr<SchedulingPolicy> policy_;
  FleetOptions options_;
  std::optional<TempDir> owned_root_;  ///< when no checkpoint_root given
  std::string checkpoint_root_;

  std::vector<JobRecord> jobs_;
  Allocation allocation_;
  sim::EventQueue<Event> queue_;
  double now_ = 0.0;
  bool ran_ = false;
  bool rebalance_scheduled_ = false;

  int total_preemptions_ = 0;
  double preemption_overhead_seconds_ = 0.0;
  int epochs_lost_to_preemption_ = 0;
  int checkpoints_written_ = 0;
  double measured_checkpoint_seconds_ = 0.0;
  double measured_restore_seconds_ = 0.0;
  long dispatches_ = 0;  ///< runaway guard across preempt/redo cycles
};

}  // namespace cannikin::sched
