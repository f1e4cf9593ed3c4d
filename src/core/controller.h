// CannikinController: the epoch-level workflow of Figure 4.
//
// Before each epoch the controller produces an EpochPlan:
//  - epochs 0/1 (no performance model yet): even split, then the
//    Eq. (8) bootstrap assignment, spread so every node visits two
//    local batch sizes at least a quarter apart and the linear models
//    become identifiable under measurement noise;
//  - once the analyzer's models are ready: enumerate the total-batch
//    candidates, score each by goodput using the cached OptPerf_init
//    values refreshed with the current GNS, pick the best, and solve
//    OptPerf for it with a warm-started overlap search (Section 4.5).
//    If the chosen candidate's overlap state changed, the whole
//    OptPerf_init cache is recomputed (Section 4.5, "Total batch size
//    selection").
//    A node the plan leaves at zero samples is re-probed once with one
//    sample, so a model fitted far from zero gets a reading near it.
//
// After each epoch the caller feeds back the observations; during the
// epoch it feeds gradient-noise measurements. The controller is
// deliberately I/O-free: it never touches the simulator's ground truth,
// only observations, so the same class would drive a real PyTorch
// integration.
#pragma once

#include <optional>
#include <vector>

#include "core/gns.h"
#include "core/goodput.h"
#include "core/optperf.h"
#include "core/perf_model.h"
#include "obs/scope.h"

namespace cannikin::core {

struct ControllerOptions {
  int initial_total_batch = 0;   ///< B0 (Table 5)
  int max_total_batch = 0;       ///< upper end of the batch size range
  double candidate_growth = 1.25;
  /// Largest gradient-accumulation factor the planner may use to grow
  /// the total batch beyond the cluster's memory capacity (1 disables).
  int max_accumulation_steps = 4;
  /// Relative misprediction that (twice in a row) makes a node's model
  /// count as drifted and restart learning; <= 0 disables. Raise it for
  /// noisy wall-clock profilers (real threads on a loaded machine).
  double drift_threshold = 0.3;
  CombineMode combine_mode = CombineMode::kInverseVariance;
  GnsWeighting gns_weighting = GnsWeighting::kOptimal;
  double gns_smoothing = 0.1;
  /// When false the total batch stays at initial_total_batch and only
  /// the local split is optimized (the fixed-batch mode of Sec. 5.2.2).
  bool adaptive_batch = true;
  /// Instrumentation sinks, already bound to the controller's timeline
  /// row (obs::kControllerTid). Disabled by default. When attached,
  /// every plan emits a "batch_decision" instant and every observation
  /// a "model_refit" instant carrying predicted vs observed batch time.
  obs::Scope obs;
};

struct EpochPlan {
  int epoch = 0;
  int total_batch = 0;
  /// Gradient-accumulation factor: each optimizer step runs this many
  /// micro-batches of `local_batches` and synchronizes on the last.
  int accumulation_steps = 1;
  /// Per-node *micro-batch* sizes (sum = total_batch / accumulation).
  std::vector<int> local_batches;
  /// Predicted batch time under the learned model; 0 while bootstrapping.
  double predicted_batch_time = 0.0;
  bool from_model = false;  ///< true once OptPerf predictions drive the plan
  int linear_solves = 0;    ///< equation solves spent planning this epoch
  double planning_seconds = 0.0;  ///< measured wall-clock of plan_epoch()
  bool cache_rebuilt = false;     ///< OptPerf_init recomputed this epoch
};

class CannikinController {
 public:
  CannikinController(int num_nodes, std::vector<double> max_local_batches,
                     ControllerOptions options);

  /// Produces the plan for the next epoch.
  EpochPlan plan_epoch();

  /// Feeds one epoch's per-node observations back to the analyzer.
  /// All vectors are indexed by node and must match plan_epoch()'s
  /// local_batches for that epoch.
  void observe_epoch(const std::vector<int>& local_batches,
                     const std::vector<double>& a_obs,
                     const std::vector<double>& p_obs,
                     const std::vector<double>& gamma_obs,
                     const std::vector<double>& t_other_obs,
                     const std::vector<double>& t_last_obs);

  /// Feeds gradient norms from one aggregation step (real training).
  void update_gns(const std::vector<double>& batches,
                  const std::vector<double>& local_norm_sq,
                  double global_norm_sq);

  /// Feeds an externally modeled GNS value (simulated workloads).
  void update_gns_value(double gns);

  /// Warm start from a model bank after a resource reallocation
  /// (Section 6, "Adapt to schedulers"): nodes with a known prior skip
  /// the bootstrap epochs entirely. Entries may be nullopt for nodes of
  /// unseen GPU types; those still learn from scratch.
  void warm_start(const std::vector<std::optional<NodeModel>>& node_priors,
                  const std::optional<CommTimes>& comm_prior,
                  double initial_gns = 0.0);

  double current_gns() const { return gns_.gns(); }
  bool model_ready() const { return perf_model_.ready(); }
  const ClusterPerfModel& perf_model() const { return perf_model_; }

  /// Learned models, exposed for the prediction study (Section 5.3).
  std::optional<std::vector<NodeModel>> learned_models() const;
  std::optional<CommTimes> learned_comm() const;

 private:
  struct CacheEntry {
    int total_batch = 0;
    double batch_time = 0.0;  ///< full optimizer-step time
    int boundary = 0;  ///< overlap state: #compute-bottleneck nodes
    int steps = 1;     ///< accumulation factor
  };

  struct SolvedCandidate {
    double step_time = 0.0;
    int steps = 1;
    int boundary = 0;
    std::vector<int> micro_batches;
    int solves = 0;
  };
  SolvedCandidate solve_candidate(const OptPerfSolver& solver, int candidate,
                                  int boundary_hint) const;

  EpochPlan bootstrap_plan();
  EpochPlan model_plan();
  /// Recomputes OptPerf for every candidate, warm-starting each from the
  /// previous candidate's overlap state (small to large).
  void rebuild_cache(const OptPerfSolver& solver, int* solves);

  int num_nodes_;
  std::vector<double> max_local_batches_;
  ControllerOptions options_;

  ClusterPerfModel perf_model_;
  GnsTracker gns_;
  GoodputModel goodput_;

  int epoch_ = 0;
  int min_plan_batch_ = 0;
  int last_total_batch_ = 0;
  double last_observed_batch_time_ = 0.0;
  double last_predicted_batch_time_ = 0.0;  ///< from the last plan_epoch()
  std::vector<int> last_local_batches_;
  std::vector<double> last_compute_times_;  // a_obs + p_obs per node
  std::vector<int> candidates_;
  std::vector<CacheEntry> cache_;
  bool cache_valid_ = false;
};

}  // namespace cannikin::core
