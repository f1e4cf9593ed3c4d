// Goodput-maximizing allocation of a heterogeneous cluster across
// multiple Cannikin jobs (Section 6, "Adapt to schedulers").
//
// Existing dynamic schedulers allocate homogeneous node sets per job;
// because Cannikin handles heterogeneity *inside* a job, the scheduler
// is free to hand any mix of GPUs to any job. Allocation is greedy by
// marginal normalized goodput: each job first receives one node, then
// every remaining node goes to the job whose estimated goodput (via an
// OptPerf solve on catalog-derived models -- the scheduler knows GPU
// and host types, not job-measured coefficients) gains the most,
// relative to its single-node goodput. This mirrors Pollux's
// sum-of-speedups objective on heterogeneous hardware.
//
// GoodputScheduler is pure mechanism: a packing primitive the
// SchedulingPolicy layer (policy.h) composes into fleet-level
// decisions. It returns a typed Allocation whose job ids are indices
// into the `jobs` argument; callers remap to fleet JobIds.
//
// Goodput curves are memoized. A job's batch time at each candidate
// total batch depends only on its workload and on the hardware of the
// nodes in order -- not on its GNS -- so the scheduler solves each
// (workload, ordered node-class sequence) curve once and every later
// query is a max over about ten cached points. The memo lives as long
// as the scheduler (the cluster is immutable, so nothing invalidates)
// and makes the scheduler NOT thread-safe, const methods included.
#pragma once

#include <array>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "sched/allocation.h"
#include "sim/cluster.h"
#include "workloads/registry.h"

namespace cannikin::sched {

struct SchedulerJobInfo {
  const workloads::Workload* workload = nullptr;
  double gns = 0.0;   ///< current gradient noise scale (drives B choice)
  int min_nodes = 1;  ///< smallest useful allocation; must be >= 1
};

class GoodputScheduler {
 public:
  /// Throws std::invalid_argument on an empty cluster.
  explicit GoodputScheduler(sim::ClusterSpec cluster);

  /// Estimated goodput (effective samples/s) of `job` on the node-index
  /// subset, using catalog-derived performance models.
  double estimated_goodput(const SchedulerJobInfo& job,
                           const std::vector<int>& node_ids) const;

  /// Packs every cluster node onto a job; job ids in the returned
  /// Allocation are indices into `jobs`. Each job receives at least its
  /// min_nodes. Throws std::invalid_argument when any min_nodes < 1, a
  /// workload is null, or the min_nodes demands exceed the cluster; an
  /// empty job list yields an all-free Allocation.
  Allocation allocate(const std::vector<SchedulerJobInfo>& jobs) const;

  /// allocate() restricted to the given node ids (ascending-deduped
  /// internally); other nodes stay free in the result. This is the
  /// packing primitive policies use to fill the non-pinned remainder of
  /// the cluster.
  Allocation allocate_subset(const std::vector<SchedulerJobInfo>& jobs,
                             const std::vector<int>& node_ids) const;

  const sim::ClusterSpec& cluster() const { return cluster_; }

  /// Hardware class of each node: nodes share a class id exactly when
  /// their gpu, contention and host_speed are equal (`host` is only a
  /// name). Ids are dense, numbered in first-seen node order.
  const std::vector<int>& node_classes() const { return node_class_; }

 private:
  /// One usable (feasible, positive-time) point of a goodput curve.
  struct CurvePoint {
    int batch = 0;
    double batch_time = 0.0;
  };
  using Curve = std::vector<CurvePoint>;
  /// Every Workload field a curve depends on, compared bitwise, so a
  /// workload is recognised by value rather than by address.
  using CurveInputs = std::array<double, 11>;
  struct KeyHash {
    std::size_t operator()(const std::vector<int>& key) const;
  };

  /// The memoized curve of `workload` on `node_ids` (non-empty).
  const Curve& curve(const workloads::Workload& workload,
                     const std::vector<int>& node_ids) const;
  /// Catalog models + OptPerf solve of every batch-size candidate.
  Curve solve_curve(const workloads::Workload& workload,
                    const std::vector<int>& node_ids) const;

  sim::ClusterSpec cluster_;
  std::vector<int> node_class_;
  // Memo state. Key: workload index into workloads_, then the class id
  // of each node in the caller's order. Keeping the order means a miss
  // hands OptPerf exactly the models the caller's node list implies,
  // so cached answers are bitwise those of a fresh solve.
  mutable std::vector<CurveInputs> workloads_;
  mutable std::unordered_map<std::vector<int>, Curve, KeyHash> curves_;
  mutable std::vector<int> key_;  ///< reused probe-key buffer
};

}  // namespace cannikin::sched
