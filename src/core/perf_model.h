// Online learning of the cluster performance model (Sections 3.2, 4.5).
//
// Per node, Cannikin learns the linear computing-time model of Eq. (3):
//   a_i(b) = q_i b + s_i   (param update + data loading + forward)
//   P_i(b) = k_i b + m_i   (backpropagation)
// from per-epoch observations at different local batch sizes.
//
// The overlap ratio gamma and the communication times T_o / T_u are
// shared across the cluster and constant in the batch size; every node
// observes them each epoch with node-specific measurement quality, and
// Cannikin combines the observations by inverse-variance weighting
// (Section 4.5 "Parameter learning"). Plain averaging is kept as the
// ablation baseline evaluated in Section 5.3.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "common/stats.h"

namespace cannikin::core {

/// Learned (or true) per-node compute model coefficients.
struct NodeModel {
  double q = 0.0;
  double s = 0.0;
  double k = 0.0;
  double m = 0.0;
  double max_batch = 1e9;  ///< device memory cap on the local batch

  double a(double b) const { return q * b + s; }
  double p(double b) const { return k * b + m; }
  double compute(double b) const { return a(b) + p(b); }
};

/// Learned (or true) shared communication parameters.
struct CommTimes {
  double gamma = 0.0;    ///< overlap ratio
  double t_other = 0.0;  ///< T_o
  double t_last = 0.0;   ///< T_u

  double total() const { return t_other + t_last; }
};

/// How repeated observations of the shared parameters are combined.
enum class CombineMode {
  kInverseVariance,  ///< Cannikin (Section 4.5)
  kMean,             ///< ablation baseline (Section 5.3)
};

/// Learns one node's a(b) and P(b) lines from epoch observations.
class NodePerfLearner {
 public:
  /// Records one epoch's averaged measurement at local batch size b.
  void observe(int local_batch, double a_observed, double p_observed);

  /// Installs a prior model (e.g. from the per-GPU-type model bank when
  /// a job is re-allocated onto a node of a known type). The learner is
  /// then ready immediately; once two distinct batch sizes have been
  /// observed on the node itself, the freshly fitted model replaces the
  /// prior.
  void set_prior(const NodeModel& model);

  /// True once two distinct local batch sizes have been observed (the
  /// minimum for fitting the linear model, Section 4.2) or a prior is
  /// installed.
  bool ready() const;

  /// Fits the model; nullopt until ready(). Observations at the same
  /// batch size are averaged and weighted by their count.
  std::optional<NodeModel> fit() const;

  std::size_t num_distinct_batches() const { return a_points_.size(); }
  /// Smallest local batch observed so far; 0 before any observation.
  int smallest_batch() const {
    return a_points_.empty() ? 0 : a_points_.begin()->first;
  }
  bool has_prior() const { return prior_.has_value(); }

  /// Drift handling ("sudden changes of resources", Section 1): when a
  /// fitted model mispredicts fresh observations by more than
  /// `threshold` (relative) for two consecutive epochs, the node's
  /// history -- and any prior -- is discarded and learning restarts
  /// from the triggering observation. Set threshold <= 0 to disable.
  void set_drift_threshold(double threshold) { drift_threshold_ = threshold; }
  int drift_resets() const { return drift_resets_; }

 private:
  // batch size -> running stats of observed times at that size
  std::map<int, RunningMoments> a_points_;
  std::map<int, RunningMoments> p_points_;
  std::optional<NodeModel> prior_;
  double drift_threshold_ = 0.3;
  int drift_strikes_ = 0;
  int drift_resets_ = 0;
  struct {
    int batch = 0;
    double a = 0.0;
    double p = 0.0;
  } quarantine_;
};

/// Learns gamma, T_o and T_u from all nodes' repeated observations.
class CommParamLearner {
 public:
  explicit CommParamLearner(int num_nodes,
                            CombineMode mode = CombineMode::kInverseVariance);

  /// Records node `node`'s observation for one epoch.
  void observe(int node, double gamma, double t_other, double t_last);

  /// Installs a prior estimate used until real observations arrive.
  void set_prior(const CommTimes& times) { prior_ = times; }

  bool ready() const { return epochs_ > 0 || prior_.has_value(); }
  std::size_t epochs() const { return epochs_; }

  /// Current combined estimate; nullopt before any observation.
  std::optional<CommTimes> estimate() const;

 private:
  struct PerNode {
    RunningMoments gamma;
    RunningMoments t_other;
    RunningMoments t_last;
  };

  std::vector<PerNode> nodes_;
  CombineMode mode_;
  std::size_t epochs_ = 0;
  std::optional<CommTimes> prior_;
};

/// Bundles the per-node learners and the shared-parameter learner;
/// this is the "analyzer" box of Figure 4.
class ClusterPerfModel {
 public:
  explicit ClusterPerfModel(int num_nodes,
                            CombineMode mode = CombineMode::kInverseVariance);

  int size() const { return static_cast<int>(node_learners_.size()); }

  /// Feed one epoch's observations for every node. `local_batches`,
  /// `a_obs`, `p_obs`, `gamma_obs`, `t_other_obs`, `t_last_obs` are
  /// parallel arrays indexed by node.
  void observe_epoch(const std::vector<int>& local_batches,
                     const std::vector<double>& a_obs,
                     const std::vector<double>& p_obs,
                     const std::vector<double>& gamma_obs,
                     const std::vector<double>& t_other_obs,
                     const std::vector<double>& t_last_obs);

  /// True once every node has seen two distinct batch sizes.
  bool ready() const;

  /// Fitted per-node models; nullopt until ready(). Caps must be set
  /// separately via set_max_batches (the scheduler knows device memory).
  std::optional<std::vector<NodeModel>> node_models() const;

  std::optional<CommTimes> comm_times() const { return comm_.estimate(); }

  const NodePerfLearner& node_learner(int node) const {
    return node_learners_.at(static_cast<std::size_t>(node));
  }

  void set_max_batches(const std::vector<double>& caps);

  /// Sets every node learner's drift threshold (see
  /// NodePerfLearner::set_drift_threshold); <= 0 disables detection.
  void set_drift_threshold(double threshold);

  /// Warm start: installs per-node model priors and a shared
  /// communication prior (used by the scheduler's model bank when a job
  /// is re-allocated; Section 6, "Adapt to schedulers").
  void set_priors(const std::vector<std::optional<NodeModel>>& node_priors,
                  const std::optional<CommTimes>& comm_prior);

  /// Total drift resets across all nodes (observability).
  int drift_resets() const;

 private:
  std::vector<NodePerfLearner> node_learners_;
  CommParamLearner comm_;
  std::vector<double> max_batches_;
};

}  // namespace cannikin::core
