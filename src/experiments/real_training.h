// Drives a planning TrainingSystem (Cannikin, DDP, ...) against the
// *real* training substrate instead of the simulator: every epoch the
// policy plans local batches, the ParallelTrainer executes them with
// the async BucketReducer (real threads, real gradients, real overlap),
// and the trainer's measured per-node phase timings flow back to the
// policy as sim::EpochObservations. This puts every policy on the same
// reducer and the same execution path -- the only difference between
// "pytorch-ddp" and "cannikin" here is what they plan.
//
// With a CannikinSystem and throttled workers (TrainerOptions::throttles)
// this is the full Cannikin loop on real threads: bootstrap, Eq. (8),
// OptPerf planning, Eq. (9) aggregation and Theorem 4.1 GNS, with
// every timing measured. Real-thread clocks jitter far more than a GPU
// profiler, so such callers raise ControllerOptions::drift_threshold
// (1.0 in the tests and examples).
#pragma once

#include <vector>

#include "dnn/parallel_trainer.h"
#include "dnn/zoo.h"
#include "experiments/training_system.h"

namespace cannikin::experiments {

/// One executed (not simulated) epoch of a policy.
struct RealEpochRow {
  int epoch = 0;
  int total_batch = 0;
  std::vector<int> local_batches;
  double mean_loss = 0.0;
  double train_accuracy = 0.0;
  double gns = 0.0;
  double epoch_seconds = 0.0;  ///< measured wall clock of the epoch
};

class RealTrainingDriver {
 public:
  /// `system` must outlive the driver and plan data-parallel epochs
  /// (non-empty local_batches summing to total_batch, no gradient
  /// accumulation); run_epoch() throws std::invalid_argument otherwise.
  /// `base` supplies execution knobs (bucket capacity, timeout, seed,
  /// throttles, obs); the workload hyper-parameters (LR, scaling,
  /// optimizer, B0) come from the zoo entry.
  RealTrainingDriver(TrainingSystem* system, const dnn::ZooEntry& entry,
                     int num_nodes, dnn::TrainerOptions base = {});

  /// plan -> execute -> observe: one closed loop of the policy on the
  /// real trainer.
  RealEpochRow run_epoch();

  const dnn::ParallelTrainer& trainer() const { return trainer_; }
  double evaluate_accuracy(const dnn::InMemoryDataset& dataset) const {
    return trainer_.evaluate_accuracy(dataset);
  }

 private:
  TrainingSystem* system_;
  dnn::ZooEntry entry_;
  dnn::ParallelTrainer trainer_;
  int epoch_ = 0;
};

}  // namespace cannikin::experiments
