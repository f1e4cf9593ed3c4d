// Data-parallel trainer over the in-process process group.
//
// This is the real-training half of the reproduction: N worker threads
// (one per simulated GPU) each train a model replica on the uneven
// local mini batches handed out by the HeteroDataLoader, stream
// per-layer gradients into a BucketReducer that overlaps the Eq. (9)
// bucketized weighted ring all-reduce with the rest of backward, feed
// the Theorem 4.1 GNS estimator from genuine gradient norms, and apply
// identical optimizer steps so the replicas stay synchronized -- the
// same protocol the paper's PyTorch implementation follows, minus CUDA.
// Each epoch also reports measured per-node phase timings (a, p, gamma,
// T_o, T_u), the executed analogue of the simulator's observations.
//
// Heterogeneity: a per-worker `throttle` repeats the forward/backward
// computation that many times (discarding the extras, like DDP's
// no_sync), turning equal CPU threads into deterministic stand-ins for
// GPUs of different speeds. A planner never sees the throttles; it
// must learn them from the measured timings. Closing that loop (plan
// -> execute -> observe) is experiments::RealTrainingDriver's job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/backend.h"
#include "core/gns.h"
#include "dnn/data.h"
#include "dnn/kernels/kernels.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "obs/scope.h"
#include "sim/network.h"

namespace cannikin::dnn {

/// What the model predicts; decides the loss (softmax cross-entropy vs
/// BCE-with-logits) and the accuracy definition.
enum class TaskKind { kClassification, kBinaryRanking };

struct TrainerOptions {
  int num_nodes = 1;
  TaskKind task = TaskKind::kClassification;
  double base_lr = 0.05;
  LrScaling lr_scaling = LrScaling::kAdaScale;
  int initial_total_batch = 32;  ///< B0 anchoring the LR scaling
  core::GnsWeighting gns_weighting = core::GnsWeighting::kOptimal;
  std::size_t bucket_capacity = 4096;  ///< elements per gradient bucket
  bool use_adam = false;
  std::uint64_t seed = 1;
  /// Deadline on every blocking comm operation (NCCL-watchdog style);
  /// <= 0 waits forever. With a deadline set, a dead or hung worker
  /// surfaces as comm::CommAbortedError from run_epoch() instead of a
  /// permanent hang.
  double comm_timeout_seconds = 0.0;
  /// Which comm::Backend the trainer's ProcessGroup runs on. kThread
  /// (default) is the real concurrent runtime; kEvent multiplexes the
  /// ranks onto the discrete-event scheduler -- same collectives, same
  /// numerics, virtual time -- which is how a laptop hosts 1k+ ranks.
  comm::BackendKind comm_backend = comm::BackendKind::kThread;
  /// Full per-pair network model for the trainer's ProcessGroup,
  /// including lossy-link faults (`comm_fabric.faults`: partitions and
  /// probabilistic drops). FabricModel::uniform_latency slows every
  /// link alike, which makes compute/communication overlap visible on
  /// a single host. Training over a lossy fabric relies on comm_retry
  /// to deliver every gradient message; no epoch is discarded as long
  /// as the retry budget holds.
  sim::FabricModel comm_fabric;
  /// Bounded retry with exponential backoff + seeded jitter on
  /// point-to-point sends (sim::RetryPolicy). Default single-shot.
  sim::RetryPolicy comm_retry;
  /// Instrumentation sinks (tracer + metrics; see obs/scope.h).
  /// Disabled by default. When attached, the trainer emits per-rank
  /// forward/backward/update spans, the comm engines trace every
  /// collective, and phase timings flow into the metrics registry.
  obs::Scope obs;
  /// Compute-kernel backend for forward/backward/update. kOptimized is
  /// bitwise identical to kNaive on the single-thread deterministic
  /// path (see DESIGN.md "Compute kernels"); kNaive remains available
  /// as the reference for parity checks and debugging.
  kernels::KernelKind kernel_kind = kernels::KernelKind::kOptimized;
  /// Intra-rank threads for batch-parallel kernels; 1 = serial
  /// (deterministic tier). Values > 1 keep a static partition that is
  /// bitwise stable across thread counts for the built-in kernels.
  int kernel_threads = 1;
  /// Route per-step tensor workspaces through a per-rank bump arena so
  /// steady-state training does zero heap allocations per step.
  bool kernel_use_arena = true;
  double gns_smoothing = 0.1;
  double momentum = 0.9;
  /// Per-worker slowdown factors (>= 1); size num_nodes, or empty for
  /// all 1. A worker with throttle 3 runs forward/backward 3 times per
  /// batch; only the last backward streams into the reducer.
  std::vector<int> throttles;
  /// Fault injection: this rank silently stops participating at the
  /// start of step `inject_failure_step` (as if its process were
  /// killed mid-epoch). -1 disables. Requires comm_timeout_seconds > 0
  /// for the surviving ranks to unwind.
  int inject_failure_rank = -1;
  int inject_failure_step = 0;
};

/// Measured per-node phase profile of an epoch, averaged over its
/// batches: the executed counterpart of sim::NodeObservation, produced
/// by real clocks around the real forward/backward/reduce instead of
/// the simulator's noise model. The compute phases (a, p) read the
/// rank's thread CPU clock; the comm phases read wall clock.
struct NodePhaseTimings {
  double a = 0.0;        ///< data-load + forward + update seconds/batch
  double p = 0.0;        ///< backward seconds/batch
  double gamma = 0.0;    ///< overlap ratio: fraction of comm hidden
                         ///< behind backward (1 - exposed/total)
  double t_other = 0.0;  ///< comm seconds/batch excluding the last bucket
  double t_last = 0.0;   ///< seconds/batch of the last-finishing bucket
};

struct EpochResult {
  double mean_loss = 0.0;
  double train_accuracy = 0.0;  ///< classification only
  int steps = 0;
  double gns_after = 0.0;  ///< smoothed GNS after the epoch
  /// Raw per-step samples, for estimator-quality studies.
  std::vector<core::GnsSample> gns_samples;
  /// One entry per rank, from that rank's own clocks.
  std::vector<NodePhaseTimings> node_timings;
  double epoch_seconds = 0.0;  ///< wall clock of the worker phase
};

class ParallelTrainer {
 public:
  /// `factory` builds an uninitialized replica of the model; the
  /// trainer owns the canonical parameters. The task kind comes from
  /// `options.task`. Throws std::invalid_argument on a null dataset,
  /// num_nodes <= 0, or throttles of the wrong size or below 1.
  ParallelTrainer(const InMemoryDataset* train,
                  std::function<Model()> factory, TrainerOptions options);

  int num_nodes() const { return options_.num_nodes; }
  std::size_t num_params() const { return params_.size(); }

  /// Trains one epoch with the given per-node local batch sizes.
  EpochResult run_epoch(const std::vector<int>& local_batches);

  /// Smoothed gradient noise scale from the tracker.
  double current_gns() const { return gns_.gns(); }

  /// Mean loss / accuracy of the current parameters on a dataset.
  double evaluate_accuracy(const InMemoryDataset& dataset) const;
  double evaluate_loss(const InMemoryDataset& dataset) const;

  const std::vector<double>& params() const { return params_; }

 private:
  const InMemoryDataset* train_;
  std::function<Model()> factory_;
  TrainerOptions options_;

  std::vector<double> params_;  ///< canonical flat parameters
  std::vector<std::unique_ptr<Optimizer>> optimizers_;
  core::GnsTracker gns_;
  int epoch_ = 0;
};

}  // namespace cannikin::dnn
