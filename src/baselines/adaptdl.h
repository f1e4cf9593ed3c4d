// AdaptDL / Pollux baseline (Section 5.1): state-of-the-art *adaptive*
// batch-size training designed for homogeneous clusters.
//
// AdaptDL picks the total batch size that maximizes goodput, but always
// splits it evenly across nodes (its throughput model assumes identical
// workers), so in a heterogeneous cluster every batch is gated by the
// slowest GPU. Its throughput model here mirrors its practice: learn a
// linear batch-time model T(B) from observed (B, batch time) pairs of
// the even split and predict candidates from it.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/goodput.h"
#include "experiments/training_system.h"

namespace cannikin::baselines {

class AdaptDlSystem : public experiments::TrainingSystem {
 public:
  AdaptDlSystem(int num_nodes, int initial_total_batch, int max_total_batch,
                std::vector<double> max_local_batches);

  std::string name() const override { return "adaptdl"; }
  experiments::SystemPlan plan_epoch() override;
  void observe_epoch(const sim::EpochObservation& obs) override;
  void observe_gns(double gns) override { gns_ = gns; }

  /// Predicted batch time for a candidate total batch size: the observed
  /// mean for an observed size, else the line fit. Exposed for tests.
  double predict_time(int total_batch) const;

 private:
  std::vector<int> even_split(int total) const;

  int num_nodes_;
  int initial_total_batch_;
  std::vector<double> max_local_batches_;
  std::vector<int> candidates_;
  core::GoodputModel goodput_;

  double gns_ = 0.0;
  int planned_total_ = 0;
  // observed mean batch time per total batch size
  std::map<int, std::pair<double, int>> observed_;
  // Line fit through observed_ once it has two points; refit when
  // observed_ changes, not per candidate in predict_time.
  std::optional<LinearFit> fit_;
};

}  // namespace cannikin::baselines
