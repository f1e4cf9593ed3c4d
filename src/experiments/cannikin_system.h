// TrainingSystem adapter wrapping the CannikinController.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "experiments/training_system.h"

namespace cannikin::experiments {

class CannikinSystem : public TrainingSystem {
 public:
  /// `max_local_batches` come from device memory (the scheduler knows
  /// them); `options` configure the controller in full.
  CannikinSystem(int num_nodes, std::vector<double> max_local_batches,
                 core::ControllerOptions options);

  /// Shorthand for the common options; `adaptive` false gives the
  /// fixed-total-batch mode of Section 5.2.2.
  CannikinSystem(int num_nodes, std::vector<double> max_local_batches,
                 int initial_total_batch, int max_total_batch,
                 bool adaptive = true,
                 core::CombineMode combine = core::CombineMode::kInverseVariance,
                 core::GnsWeighting gns = core::GnsWeighting::kOptimal);

  std::string name() const override { return "cannikin"; }
  SystemPlan plan_epoch() override;
  void observe_epoch(const sim::EpochObservation& obs) override;
  void observe_gns(double gns) override;

  const core::CannikinController& controller() const { return controller_; }
  /// Mutable access for warm-starting after a resource reallocation.
  core::CannikinController& mutable_controller() { return controller_; }

 private:
  core::CannikinController controller_;
};

}  // namespace cannikin::experiments
