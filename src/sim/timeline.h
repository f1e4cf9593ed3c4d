// Event-level simulation of one data-parallel batch with bucketized
// ring all-reduce and compute/communication overlap.
//
// This reproduces the timing semantics of Figures 1-3: every node runs
// parameter update + data loading + forward (a_i), then backpropagation
// (P_i) during which gradient buckets become ready for synchronization;
// bucket j's all-reduce starts once every node has produced bucket j AND
// bucket j-1's all-reduce has finished (communication is serialized on
// the ring), and the batch completes when the last bucket finishes.
//
// The paper's closed form, Eq. (7), is
//   T = max( max_i { t_compute_i + T_u },
//            max_i { syncStart_i + T_comm } ),
// which the event simulation matches under the paper's evenly-distributed
// bucket assumption; tests verify the two agree.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/network.h"

namespace cannikin::sim {

/// Per-node compute timing for one batch (actual values, after any
/// run-to-run jitter has been applied).
struct NodeBatchTiming {
  double a = 0.0;      ///< parameter update + data loading + forward
  double p = 0.0;      ///< backpropagation
  double gamma = 0.0;  ///< first-bucket ready point as a fraction of p

  double compute_time() const { return a + p; }
  double sync_start() const { return a + gamma * p; }
};

/// Result of simulating one batch at event level.
struct BatchTimeline {
  double batch_time = 0.0;            ///< completion of the last bucket
  std::vector<double> bucket_start;   ///< all-reduce start per bucket
  std::vector<double> bucket_finish;  ///< all-reduce finish per bucket
  /// True when for every bucket the all-reduce started strictly after the
  /// previous bucket finished on at least one node's account -- i.e. the
  /// communication was never idle once started.
  bool communication_saturated = false;
};

/// When one node's gradient buckets become ready in one batch: the one
/// copy of the readiness formula, built once per node and batch and then
/// read per bucket. Bucket 0 is ready at syncStart = a + gamma p; the
/// remaining buckets are evenly spaced through the rest of
/// backpropagation, the last at a + p. A single bucket cannot overlap
/// with anything: it is ready when the whole backward pass completes.
struct BucketReadiness {
  BucketReadiness(double a, double p, double gamma)
      : sync(a + gamma * p), span((1.0 - gamma) * p), compute(a + p) {}

  /// Ready time of bucket j; unchecked, requires 0 <= j < num_buckets.
  double at(int j, int num_buckets) const {
    if (num_buckets == 1) return compute;
    return sync + span * static_cast<double>(j) /
                      static_cast<double>(num_buckets - 1);
  }

  double sync;     ///< a + gamma p: bucket 0 ready
  double span;     ///< (1 - gamma) p: bucket 0 to the last bucket
  double compute;  ///< a + p: the only bucket's ready time
};

/// Moment node `timing` has bucket j (0-based of `num_buckets`) ready;
/// throws std::out_of_range on a bad index.
double bucket_ready_time(const NodeBatchTiming& timing, int j,
                         int num_buckets);

/// Simulates the bucket pipeline for one batch across all nodes.
BatchTimeline simulate_batch(const std::vector<NodeBatchTiming>& nodes,
                             const CommSchedule& comm);

/// Batch time only, for nodes sharing one gamma, with no allocation per
/// batch: the kernel under ClusterJob::run_epoch. It holds the
/// schedule's bucket times and one reused readiness buffer. Per batch,
/// add() every node, then finish_batch(). The result is bitwise equal
/// to simulate_batch(nodes, comm).batch_time: the same readiness
/// formula and bucket chain, and max is exact, so folding node by node
/// instead of bucket by bucket changes no bits.
class BatchTimeKernel {
 public:
  BatchTimeKernel(const CommSchedule& comm, double gamma);

  /// Folds one node's bucket ready times into the batch's readiness.
  void add(double a, double p) {
    const BucketReadiness node(a, p, gamma_);
    const int num_buckets = static_cast<int>(ready_.size());
    for (int j = 0; j < num_buckets; ++j) {
      double& ready = ready_[static_cast<std::size_t>(j)];
      ready = std::max(ready, node.at(j, num_buckets));
    }
  }

  /// Runs the serial bucket chain over the nodes added since the last
  /// call, returns the batch time and clears the readiness for the next
  /// batch.
  double finish_batch();

 private:
  double gamma_;
  std::vector<double> bucket_time_;
  std::vector<double> ready_;
};

/// The paper's closed-form batch time, Eq. (7).
double closed_form_batch_time(const std::vector<NodeBatchTiming>& nodes,
                              const CommSchedule& comm);

}  // namespace cannikin::sim
