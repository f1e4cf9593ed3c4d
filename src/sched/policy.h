// Scheduling policy layer: *what* the fleet should look like.
//
// The policy/mechanism split (LBANN's execution_algorithms/callbacks
// separation, Pollux/Sia-style cluster schedulers): a SchedulingPolicy
// only decides placement -- it receives an immutable FleetState
// snapshot on every scheduling event and returns the *target*
// Allocation for the whole cluster. The FleetSim mechanism (fleet.h)
// diffs that target against the live allocation and executes the
// changes: starting queued jobs, growing/shrinking running ones
// (ElasticCannikinJob reallocation with banked warm starts), and
// preempting/migrating via checkpoint-restore. Policies never touch a
// job object and hold no mutable fleet state of their own beyond
// construction-time configuration (and caches derived from it, such as
// GoodputScheduler's goodput-curve memo), which is what makes new
// policies a single-class addition instead of an event-loop rewrite.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/allocation.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "workloads/registry.h"

namespace cannikin::sched {

/// What a tenant submits: the workload plus scheduling intent.
struct JobSpec {
  std::string name;  ///< submitter-chosen label (for traces/benches)
  const workloads::Workload* workload = nullptr;
  /// Priority class: higher runs first; ties broken by arrival order.
  int priority = 0;
  /// Fraction of the workload's full convergence target this job needs
  /// (fleet tenants often run short fine-tunes, not full training).
  /// Must be in (0, 1].
  double target_fraction = 1.0;
  /// Smallest useful allocation; the job queues rather than run below
  /// this. Must be >= 1.
  int min_nodes = 1;
  /// Nodes the job asks for under rigid policies (FIFO/static grant
  /// exactly this; elastic policies treat it as a hint only).
  /// 0 = policy default.
  int preferred_nodes = 0;
  /// Soft completion-latency hint in virtual seconds (0 = none).
  /// Advisory: policies may use it for ordering, none enforce it.
  double deadline_hint_seconds = 0.0;

  /// Throws std::invalid_argument on a null workload, min_nodes < 1,
  /// target_fraction outside (0, 1], or negative preferred_nodes.
  void validate() const;
};

/// Read-only per-job view handed to policies.
struct FleetJobView {
  JobId id = kNoJob;
  const JobSpec* spec = nullptr;
  double arrival_time = 0.0;
  double progress = 0.0;  ///< fraction of this job's own target, [0, 1]
  double gns = 0.0;       ///< live GNS estimate (0 until first started)
  bool started = false;   ///< ever held nodes
  int epochs = 0;
};

/// Immutable fleet snapshot for one scheduling decision.
struct FleetState {
  const sim::ClusterSpec* cluster = nullptr;
  const Allocation* current = nullptr;
  /// Admitted, unfinished jobs in arrival order.
  std::vector<FleetJobView> jobs;
  double now = 0.0;  ///< virtual time of the triggering event
  /// Cost estimate of one preemption (checkpoint rollback + restore),
  /// in virtual seconds; policies weigh marginal-goodput gains against
  /// it before evicting a running job.
  double preemption_cost_seconds = 0.0;

  const FleetJobView* view_of(JobId id) const;
};

/// Policy interface: every hook returns the full target Allocation
/// (job ids = FleetJobView::id). Returning `*state.current` unchanged
/// means "no move". The mechanism owns execution and timing -- deltas
/// that keep a job running are applied at its next epoch boundary;
/// full preemptions abort the in-flight epoch immediately.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual std::string name() const = 0;

  virtual Allocation on_job_arrival(const FleetState& state,
                                    JobId arrived) = 0;
  virtual Allocation on_job_finish(const FleetState& state,
                                   JobId finished) = 0;
  /// Periodic rebalance opportunity (only fired when the fleet runs
  /// with a rebalance interval). Default: no move.
  virtual Allocation on_rebalance_tick(const FleetState& state);
};

/// Strict first-in-first-out with head-of-line blocking: each job gets
/// exactly its requested node count (preferred_nodes, else the policy
/// default) in node-index order when enough nodes are free; otherwise
/// it -- and everything behind it -- waits. Running jobs are never
/// resized, moved, or preempted. The classic rigid baseline.
class FifoPolicy : public SchedulingPolicy {
 public:
  explicit FifoPolicy(int default_job_nodes = 4);
  std::string name() const override { return "fifo"; }
  Allocation on_job_arrival(const FleetState& state, JobId arrived) override;
  Allocation on_job_finish(const FleetState& state, JobId finished) override;

 private:
  Allocation fill(const FleetState& state) const;
  int default_job_nodes_;
};

/// Fixed contiguous partitions sized at construction; an arriving job
/// takes the lowest free partition, otherwise queues FIFO. Freed
/// partitions go to the queue head. Never rebalances -- the
/// heterogeneity-blind strawman a static cluster split produces.
class StaticPartitionPolicy : public SchedulingPolicy {
 public:
  /// Splits `num_nodes` into `num_partitions` contiguous blocks with
  /// the same rounding as the legacy static split
  /// (partition_of(node) = node * P / N).
  StaticPartitionPolicy(int num_nodes, int num_partitions);
  std::string name() const override { return "static"; }
  Allocation on_job_arrival(const FleetState& state, JobId arrived) override;
  Allocation on_job_finish(const FleetState& state, JobId finished) override;

 private:
  Allocation fill(const FleetState& state) const;
  std::vector<std::vector<int>> partitions_;
};

/// Pollux-style goodput-greedy packer generalizing GoodputScheduler to
/// a live fleet: on every event it selects the runnable set by
/// (priority, arrival), packs it with greedy marginal normalized
/// goodput over the heterogeneous pool, and preempts a running job
/// only when the estimated fleet-goodput gain over
/// kPreemptionHorizonSeconds exceeds the job's own goodput times the
/// measured checkpoint/restore cost (otherwise the job is pinned on its
/// current nodes and the remainder is repacked around it).
class GoodputGreedyPolicy : public SchedulingPolicy {
 public:
  /// Virtual seconds over which a repack's fleet-goodput gain is
  /// credited when weighed against the preemption cost.
  static constexpr double kPreemptionHorizonSeconds = 600.0;

  explicit GoodputGreedyPolicy(sim::ClusterSpec cluster);
  std::string name() const override { return "goodput"; }
  Allocation on_job_arrival(const FleetState& state, JobId arrived) override;
  Allocation on_job_finish(const FleetState& state, JobId finished) override;
  Allocation on_rebalance_tick(const FleetState& state) override;

 private:
  Allocation repack(const FleetState& state) const;

  GoodputScheduler scheduler_;
};

}  // namespace cannikin::sched
