// The whole paper on real threads: a CannikinSystem plans and the
// RealTrainingDriver executes on the ParallelTrainer, closing Cannikin's
// loop -- bootstrap, Eq. (8), OptPerf planning, Eq. (9) aggregation,
// Theorem 4.1 GNS -- against three genuinely unequal workers (CPU
// threads throttled 1x / 2x / 4x), with every timing *measured*, not
// simulated.
//
//   build/examples/adaptive_real_training
//
// Watch the local batches skew toward the fast worker as the measured
// performance models converge, while accuracy climbs and the total
// batch follows the (real, estimated) gradient noise scale.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "dnn/zoo.h"
#include "experiments/cannikin_system.h"
#include "experiments/real_training.h"

int main() {
  using namespace cannikin;

  dnn::ZooEntry entry;
  entry.workload = "mixture";
  entry.factory = [] { return dnn::make_mlp(20, 28, 1, 5); };
  entry.dataset = std::make_shared<dnn::InMemoryDataset>(
      dnn::make_gaussian_mixture(/*size=*/5000, /*dim=*/20, /*classes=*/5,
                                 /*separation=*/2.4, /*seed=*/3));
  entry.base_lr = 0.04;
  entry.initial_total_batch = 48;

  // Real threads have no device-memory cap (the dataset bounds each
  // local batch), and their clocks jitter far more than a GPU
  // profiler's: only a gross, persistent misprediction is drift.
  core::ControllerOptions controller;
  controller.initial_total_batch = 48;
  controller.max_total_batch = 240;
  controller.drift_threshold = 1.0;
  experiments::CannikinSystem system(
      3, std::vector<double>(3, static_cast<double>(entry.dataset->size())),
      controller);

  dnn::TrainerOptions base;
  base.throttles = {1, 2, 4};  // fast / medium / slow "GPUs"
  base.seed = 9;
  experiments::RealTrainingDriver driver(&system, entry, 3, base);

  std::printf("3 workers, throttles 1x/2x/4x (the controller must learn "
              "this)\n\n");
  std::printf("%-6s %-6s %-16s %-8s %-9s %-10s %s\n", "epoch", "B",
              "local batches", "loss", "accuracy", "gns", "source");
  for (int epoch = 0; epoch < 14; ++epoch) {
    const bool from_model = system.controller().model_ready();
    const auto row = driver.run_epoch();
    std::printf("%-6d %-6d [%3d %3d %3d]    %-8.4f %-9.3f %-10.1f %s\n",
                row.epoch, row.total_batch, row.local_batches[0],
                row.local_batches[1], row.local_batches[2], row.mean_loss,
                driver.evaluate_accuracy(*entry.dataset), row.gns,
                from_model ? "OptPerf" : "bootstrap");
  }

  const auto models = system.controller().learned_models();
  if (models) {
    std::printf("\nlearned per-sample compute time ratios (true 1 : 2 : 4): "
                "1 : %.1f : %.1f\n",
                ((*models)[1].q + (*models)[1].k) /
                    ((*models)[0].q + (*models)[0].k),
                ((*models)[2].q + (*models)[2].k) /
                    ((*models)[0].q + (*models)[0].k));
  }
  return 0;
}
