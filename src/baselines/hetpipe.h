// HetPipe baseline (Park et al., ATC'20; Section 5.1).
//
// HetPipe partitions the model into pipeline stages sized to each
// node's speed and streams micro-batches through the pipeline (its
// "pipelined model parallelism"). With a speed-proportional partition,
// every stage processes one micro-batch in roughly the same time
//   t_stage = W_sample * u / sum_i speed_i,
// (W_sample = whole-model per-sample compute on a unit GPU, u =
// micro-batch size), and a batch of M micro-batches drains in
//   (M + n - 1) * t_stage + activation-transfer cost,
// the (n-1) term being the classic pipeline fill/drain bubble. Batch
// size is fixed: the paper notes adaptive batch sizing is impractical
// under model parallelism (GNS is not observable per-stage), which is
// exactly why Cannikin sticks to data parallelism.
//
// Unlike the data-parallel baselines this policy cannot execute on the
// data-parallel simulator, so it computes its batch time analytically
// from the cluster's ground truth -- an *optimistic* stand-in (perfect
// partition, zero pipeline stalls beyond the bubble).
#pragma once

#include <vector>

#include "experiments/training_system.h"
#include "sim/cluster.h"

namespace cannikin::baselines {

class HetPipeSystem : public experiments::TrainingSystem {
 public:
  /// `micro_batch` is the pipeline micro-batch size u (samples);
  /// `stage_overhead` is the per-stage, per-micro-batch driving cost
  /// (kernel launches, activation hand-off) that makes pipelining
  /// shallow/small models inefficient.
  HetPipeSystem(const sim::ClusterJob* job, int total_batch,
                int micro_batch = 4, double stage_overhead = 1e-3);

  std::string name() const override { return "hetpipe"; }
  experiments::SystemPlan plan_epoch() override;
  void observe_epoch(const sim::EpochObservation& obs) override;

  /// Exposed for tests: the analytic per-batch time.
  double batch_time() const;

 private:
  /// Per-sample time of the slowest pipeline stage. Costs three
  /// O(n L^2) partition DPs, so it is memoized on the node speeds, its
  /// only input that can change: set_contention rescales them in place,
  /// so the key is the speed values, not the job pointer.
  double per_sample_stage() const;

  const sim::ClusterJob* job_;
  int total_batch_;
  int micro_batch_;
  double stage_overhead_;
  mutable std::vector<double> memo_speeds_;
  mutable double memo_stage_ = 0.0;
};

}  // namespace cannikin::baselines
