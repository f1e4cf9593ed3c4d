// The one test that asserts on measured timings: Cannikin, driven over
// the real trainer, must learn throttle-emulated 1:2:4 workers from
// their thread-CPU compute clocks and skew the local batches to match.
// It lives in its own binary with the ctest label `timing` so sanitizer
// and stress runs can leave it out (`ctest -LE timing`).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/zoo.h"
#include "experiments/cannikin_system.h"
#include "experiments/real_training.h"

// TSan instrumentation slows threads down by a large, *nonuniform*
// factor, so assertions about learned compute proportions are
// meaningless under it (the trainer still runs for race coverage).
#if defined(__SANITIZE_THREAD__)
#define CANNIKIN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CANNIKIN_TSAN_BUILD 1
#endif
#endif

namespace cannikin {
namespace {

TEST(AdaptiveTraining, LearnsThrottlesAndSkewsLocalBatches) {
  dnn::ZooEntry entry;
  entry.workload = "mixture";
  entry.factory = [] { return dnn::make_mlp(16, 24, 1, 4); };
  entry.dataset = std::make_shared<dnn::InMemoryDataset>(
      dnn::make_gaussian_mixture(3000, 16, 4, 2.5, 5));
  entry.base_lr = 0.04;
  entry.initial_total_batch = 48;

  // Real threads: the dataset bounds each local batch, and only a
  // gross, persistent misprediction counts as drift.
  core::ControllerOptions controller;
  controller.initial_total_batch = 48;
  controller.max_total_batch = 192;
  controller.drift_threshold = 1.0;
  experiments::CannikinSystem system(
      3, std::vector<double>(3, static_cast<double>(entry.dataset->size())),
      controller);

  dnn::TrainerOptions base;
  base.throttles = {1, 2, 4};  // a fast, a medium and a slow "GPU"
  base.seed = 11;
  experiments::RealTrainingDriver driver(&system, entry, 3, base);

  experiments::RealEpochRow row;
  bool planned_from_model = false;
  for (int epoch = 0; epoch < 5; ++epoch) {
    planned_from_model = system.controller().model_ready();
    row = driver.run_epoch();
  }
  ASSERT_TRUE(planned_from_model);
#if !defined(CANNIKIN_TSAN_BUILD)
  // Throttles 1:2:4 -> worker 0 must carry the largest local batch and
  // worker 2 the smallest, learned purely from measured compute time.
  EXPECT_GT(row.local_batches[0], row.local_batches[1]);
  EXPECT_GT(row.local_batches[1], row.local_batches[2]);
  // The learned per-sample compute times should roughly reflect 1:2:4.
  const auto models = system.controller().learned_models();
  ASSERT_TRUE(models.has_value());
  const double r10 = ((*models)[1].q + (*models)[1].k) /
                     ((*models)[0].q + (*models)[0].k);
  const double r20 = ((*models)[2].q + (*models)[2].k) /
                     ((*models)[0].q + (*models)[0].k);
  EXPECT_NEAR(r10, 2.0, 0.9);
  EXPECT_NEAR(r20, 4.0, 1.8);
#endif
}

}  // namespace
}  // namespace cannikin
