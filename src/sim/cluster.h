// Simulated heterogeneous cluster bound to one training job.
//
// This is the stand-in for the paper's real testbeds: it owns the
// *ground-truth* per-node linear compute coefficients (Eq. 3), the
// communication schedule (Section 3.2.2/3.2.3) and produces the noisy
// per-epoch measurements that Cannikin's analyzer learns from. All of
// Cannikin runs unmodified on top of these observations; nothing in
// src/core may touch the ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/gpu.h"
#include "sim/network.h"
#include "sim/timeline.h"

namespace cannikin::sim {

/// One GPU in a cluster. `contention` scales effective speed below 1.0
/// to model sharing-induced heterogeneity (Section 6, cluster C).
/// `host_speed` is the node's CPU-side speed (data loading, optimizer
/// step driving, Python overhead) relative to cluster B's RTX hosts;
/// it scales the batch-size-independent forward-path cost s_i. Hosts
/// and GPUs are *not* proportional (Tables 3/4 pair each GPU with a
/// different CPU), which is why balancing compute time alone (LB-BSP)
/// differs from OptPerf's overlap-aware assignment.
struct NodeSpec {
  GpuModel gpu;
  std::string host;
  double contention = 1.0;
  double host_speed = 1.0;
};

struct ClusterSpec {
  std::string name;
  std::vector<NodeSpec> nodes;
  NetworkModel network;
  /// Optional server grouping (node -> server id). Non-empty enables
  /// BlueConnect-style hierarchical all-reduce; must then have one
  /// entry per node.
  std::vector<int> comm_groups;

  int size() const { return static_cast<int>(nodes.size()); }
};

/// Per-job compute cost expressed in seconds on a unit-speed GPU
/// (RTX 6000). Divided by each node's effective speed to obtain the
/// ground-truth coefficients of Eq. (3).
struct JobProfile {
  std::string name;
  double per_sample_forward = 0.0;   ///< GPU share of q on a unit GPU
  double per_sample_load = 0.0;      ///< host share of q (data loading)
  double fixed_forward = 0.0;        ///< s on a unit-speed host
  double per_sample_backward = 0.0;  ///< k on a unit-speed GPU
  double fixed_backward = 0.0;       ///< m on a unit-speed GPU
  double gradient_bytes = 0.0;       ///< model size in bytes (fp32)
  double bucket_bytes = 25e6;        ///< DDP default bucket capacity
  double gamma = 0.15;               ///< overlap ratio (Section 3.2.3)
  double mem_bytes_per_sample = 0.0; ///< activation memory per sample
};

/// Ground-truth linear compute model of one node: a(b) = q b + s,
/// P(b) = k b + m (Eq. 3).
struct NodeTruth {
  double q = 0.0;
  double s = 0.0;
  double k = 0.0;
  double m = 0.0;
  int max_local_batch = 0;  ///< device-memory cap

  double a(double b) const { return q * b + s; }
  double p(double b) const { return k * b + m; }
  double compute(double b) const { return a(b) + p(b); }
};

/// Derives a node's ground-truth Eq. (3) coefficients from its GPU /
/// host speeds and a job profile. Also used by the scheduler as its
/// catalog-based estimate (the scheduler knows GPU and host types).
NodeTruth derive_node_truth(const NodeSpec& node, const JobProfile& job);

/// Noise model: `run_sigma` is genuine run-to-run jitter (affects the
/// true clock), `meas_sigma` is measurement error on what the profiler
/// reports (affects only observations). Each node gets its own
/// measurement sigma, drawn in [0.5, 2] x meas_sigma, so that
/// inverse-variance weighting across nodes has something to exploit.
///
/// Communication readings (gamma, T_o, T_u) are much harder to measure
/// than compute times: a node attributes bucket waiting time from its
/// own vantage point, and "contingency in gradient synchronization"
/// (Section 5.3) hits some nodes persistently harder than others --
/// the more buckets a model synchronizes, the worse. Per node, the
/// comm-measurement sigma is drawn in
///   meas_sigma * [0.5, comm_sigma_spread] * (0.5 + buckets / 20),
/// giving the persistently heteroscedastic observations that
/// inverse-variance weighting exploits and plain averaging cannot.
struct NoiseConfig {
  double run_sigma = 0.015;
  double meas_sigma = 0.04;
  double comm_sigma_spread = 6.0;
  bool enabled = true;

  static NoiseConfig none() {
    NoiseConfig config;
    config.run_sigma = 0.0;
    config.meas_sigma = 0.0;
    config.comm_sigma_spread = 0.0;
    config.enabled = false;
    return config;
  }
};

/// What one node's profiler reports for one epoch (averaged over the
/// epoch's batches, as Cannikin's analyzer does).
struct NodeObservation {
  int local_batch = 0;
  double a = 0.0;          ///< observed data-load+forward+update time
  double p = 0.0;          ///< observed backpropagation time
  double gamma = 0.0;      ///< observed overlap ratio
  double t_other = 0.0;    ///< observed T_o
  double t_last = 0.0;     ///< observed T_u
};

struct EpochObservation {
  std::vector<NodeObservation> nodes;
  double total_time = 0.0;       ///< true wall-clock of the epoch
  double avg_batch_time = 0.0;   ///< true mean batch time
  int num_batches = 0;
};

/// A cluster bound to one job: owns ground truth and generates epochs.
class ClusterJob {
 public:
  ClusterJob(ClusterSpec cluster, JobProfile job, NoiseConfig noise,
             std::uint64_t seed);

  int size() const { return cluster_.size(); }
  const ClusterSpec& cluster() const { return cluster_; }
  const JobProfile& job() const { return job_; }
  const CommSchedule& comm() const { return comm_; }
  const NodeTruth& truth(int node) const;
  double gamma() const { return job_.gamma; }

  /// Effective speed (relative * contention) of a node.
  double speed(int node) const;

  /// True batch time for (possibly fractional) local batch sizes, no
  /// jitter: the quantity OptPerf predicts. Local batches may be zero.
  double true_batch_time(const std::vector<double>& local_batches) const;

  /// Event-level timeline for given local batches (no jitter).
  BatchTimeline true_timeline(const std::vector<double>& local_batches) const;

  /// Runs `num_batches` optimizer steps at the given *micro-batch*
  /// local sizes and returns the epoch's noisy observations plus true
  /// elapsed time. With accumulation_steps > 1 each optimizer step runs
  /// that many micro-batches, synchronizing gradients only on the last
  /// (DDP no_sync): the first steps-1 micro-batches cost pure compute,
  /// the final one runs the overlapped bucket pipeline.
  EpochObservation run_epoch(const std::vector<int>& local_batches,
                             int num_batches, int accumulation_steps = 1);

  /// Memory cap on node's local batch size.
  int max_local_batch(int node) const;

  /// Sum of per-node caps: upper bound on the feasible total batch size.
  int max_total_batch() const;

  /// Changes a node's sharing contention at runtime ("sudden changes of
  /// resources", Section 1): the node's ground-truth coefficients are
  /// re-derived, so subsequent epochs run -- and are observed -- at the
  /// new speed. Cannikin must notice and re-learn.
  void set_contention(int node, double contention);

  /// Current contention of a node (1.0 = unshared).
  double contention(int node) const;

  /// Scales the interconnect's bandwidths (inter- and intra-node) by
  /// `factor` relative to the cluster spec and rebuilds the ground-truth
  /// communication schedule. Models runtime network degradation
  /// (congestion, a flapping link); factor 1.0 restores the spec.
  void set_network_scale(double factor);
  double network_scale() const { return network_scale_; }

 private:
  std::vector<NodeBatchTiming> timings(
      const std::vector<double>& local_batches) const;

  ClusterSpec cluster_;
  JobProfile job_;
  NoiseConfig noise_;
  CommSchedule comm_;
  double network_scale_ = 1.0;
  std::vector<NodeTruth> truths_;
  std::vector<double> node_meas_sigma_;
  std::vector<double> node_comm_sigma_;
  /// Noise key: every draw hashes (seed_, epoch index, step, micro-step,
  /// node, kind); epoch_ counts the run_epoch() calls made so far.
  std::uint64_t seed_;
  std::uint64_t epoch_ = 0;
};

}  // namespace cannikin::sim
