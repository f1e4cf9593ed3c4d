// Tests for RealTrainingDriver: planning policies (DDP, Cannikin)
// executing on the real ParallelTrainer / BucketReducer substrate, with
// measured phase timings flowing back as observations -- including the
// full Cannikin loop over throttle-emulated heterogeneous workers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ddp.h"
#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/zoo.h"
#include "experiments/cannikin_system.h"
#include "experiments/real_training.h"

namespace cannikin {
namespace {

// A tiny classification stand-in so the tests stay fast.
dnn::ZooEntry tiny_entry() {
  dnn::ZooEntry entry;
  entry.workload = "tiny";
  entry.task = dnn::TaskKind::kClassification;
  entry.factory = [] { return dnn::make_mlp(8, 12, 1, 3); };
  entry.dataset = std::make_shared<dnn::InMemoryDataset>(
      dnn::make_gaussian_mixture(240, 8, 3, 3.0, 17));
  entry.base_lr = 0.05;
  entry.lr_scaling = dnn::LrScaling::kNone;
  entry.initial_total_batch = 12;
  return entry;
}

TEST(RealTrainingDriver, DdpPolicyExecutesOnTheRealTrainer) {
  const auto entry = tiny_entry();
  baselines::DdpSystem ddp(3, 24, {64, 64, 64});
  experiments::RealTrainingDriver driver(&ddp, entry, 3);

  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto row = driver.run_epoch();
    EXPECT_EQ(row.epoch, epoch);
    EXPECT_EQ(row.total_batch, 24);
    ASSERT_EQ(row.local_batches.size(), 3u);
    EXPECT_EQ(std::accumulate(row.local_batches.begin(),
                              row.local_batches.end(), 0),
              24);
    EXPECT_TRUE(std::isfinite(row.mean_loss));
    EXPECT_GT(row.epoch_seconds, 0.0);
  }
}

TEST(RealTrainingDriver, CannikinPolicyClosesTheLoopOnMeasuredTimings) {
  const auto entry = tiny_entry();
  experiments::CannikinSystem system(3, {64, 64, 64},
                                     /*initial_total_batch=*/12,
                                     /*max_total_batch=*/48);
  experiments::RealTrainingDriver driver(&system, entry, 3);

  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto row = driver.run_epoch();
    EXPECT_EQ(row.epoch, epoch);
    EXPECT_GT(row.epoch_seconds, 0.0);
    ASSERT_EQ(row.local_batches.size(), 3u);
    EXPECT_GT(row.total_batch, 0);
    EXPECT_LE(row.total_batch, 48);
    EXPECT_EQ(std::accumulate(row.local_batches.begin(),
                              row.local_batches.end(), 0),
              row.total_batch);
    EXPECT_TRUE(std::isfinite(row.mean_loss));
    EXPECT_GE(row.gns, 0.0);
  }
  // The controller consumed four epochs of real observations and kept a
  // finite GNS estimate alive from genuine gradient norms.
  EXPECT_GE(system.controller().current_gns(), 0.0);
  EXPECT_TRUE(std::isfinite(system.controller().current_gns()));
}

TEST(RealTrainingDriver, RejectsMismatchedOrEmptyPlans) {
  const auto entry = tiny_entry();
  baselines::DdpSystem ddp(2, 16, {64, 64});
  EXPECT_THROW(
      experiments::RealTrainingDriver(nullptr, entry, 2),
      std::invalid_argument);
  // Plan for 2 nodes executed on a 3-node trainer.
  experiments::RealTrainingDriver driver(&ddp, entry, 3);
  EXPECT_THROW(driver.run_epoch(), std::invalid_argument);
}

// Replays one fixed plan every epoch.
class FixedPlanSystem : public experiments::TrainingSystem {
 public:
  explicit FixedPlanSystem(experiments::SystemPlan plan)
      : plan_(std::move(plan)) {}
  std::string name() const override { return "fixed"; }
  experiments::SystemPlan plan_epoch() override { return plan_; }
  void observe_epoch(const sim::EpochObservation&) override {}

 private:
  experiments::SystemPlan plan_;
};

TEST(RealTrainingDriver, RejectsPlansItCannotRunAsStated) {
  // The trainer runs one micro-batch of local_batches per step, so
  // executing either plan would train 24 samples per step while the
  // row reported 48.
  const auto entry = tiny_entry();
  // Caps of 8 per node hold 24 of the 48-sample initial batch.
  experiments::CannikinSystem capped(3, {8, 8, 8},
                                     /*initial_total_batch=*/48,
                                     /*max_total_batch=*/96);
  experiments::RealTrainingDriver capped_driver(&capped, entry, 3);
  EXPECT_THROW(capped_driver.run_epoch(), std::invalid_argument);

  experiments::SystemPlan accumulated;
  accumulated.total_batch = 48;
  accumulated.accumulation_steps = 2;
  accumulated.local_batches = {8, 8, 8};
  FixedPlanSystem fixed(accumulated);
  experiments::RealTrainingDriver fixed_driver(&fixed, entry, 3);
  EXPECT_THROW(fixed_driver.run_epoch(), std::invalid_argument);
}

TEST(RealTrainingDriver, CannikinTrainsToGoodAccuracyWhileAdapting) {
  dnn::ZooEntry entry;
  entry.workload = "mixture";
  entry.factory = [] { return dnn::make_mlp(16, 24, 1, 4); };
  entry.dataset = std::make_shared<dnn::InMemoryDataset>(
      dnn::make_gaussian_mixture(3000, 16, 4, 3.0, 6));
  entry.base_lr = 0.04;
  entry.initial_total_batch = 48;
  // Cannikin on real threads: the dataset bounds each local batch, and
  // only a gross, persistent misprediction counts as drift -- real
  // thread clocks jitter far more than a GPU profiler.
  core::ControllerOptions controller;
  controller.initial_total_batch = 48;
  controller.max_total_batch = 192;
  controller.drift_threshold = 1.0;
  experiments::CannikinSystem system(3, std::vector<double>(3, 3000.0),
                                     controller);
  dnn::TrainerOptions base;
  base.throttles = {1, 2, 4};  // a fast, a medium and a slow "GPU"
  base.seed = 11;
  experiments::RealTrainingDriver driver(&system, entry, 3, base);
  for (int epoch = 0; epoch < 8; ++epoch) driver.run_epoch();
  EXPECT_GT(driver.evaluate_accuracy(*entry.dataset), 0.85);
  EXPECT_GE(system.controller().current_gns(), 0.0);
}

TEST(ParallelTrainerTimings, EpochReportsMeasuredPhaseProfile) {
  const auto dataset = dnn::make_gaussian_mixture(300, 8, 3, 3.0, 5);
  dnn::TrainerOptions options;
  options.num_nodes = 2;
  options.lr_scaling = dnn::LrScaling::kNone;
  options.initial_total_batch = 20;
  options.bucket_capacity = 64;  // several buckets for this model
  dnn::ParallelTrainer trainer(
      &dataset, [] { return dnn::make_mlp(8, 16, 2, 3); }, options);

  const auto result = trainer.run_epoch({12, 8});
  EXPECT_GT(result.steps, 0);
  EXPECT_GT(result.epoch_seconds, 0.0);
  ASSERT_EQ(result.node_timings.size(), 2u);
  for (const auto& timing : result.node_timings) {
    EXPECT_GT(timing.a, 0.0);
    EXPECT_GT(timing.p, 0.0);
    EXPECT_GE(timing.gamma, 0.0);
    EXPECT_LE(timing.gamma, 1.0);
    EXPECT_GE(timing.t_last, 0.0);
    EXPECT_GE(timing.t_other, 0.0);
  }
}

}  // namespace
}  // namespace cannikin
