// Records a few epochs of the Cannikin loop on real threads
// (CannikinSystem + RealTrainingDriver) with the observability layer on and
// writes a Chrome trace_event JSON timeline:
//
//   build/examples/trace_adaptive_epoch
//   # -> trace_adaptive_epoch.json; open in chrome://tracing or
//   #    https://ui.perfetto.dev
//
// What to look for in the viewer:
//   * rows "rank 0".."rank 2": per-batch forward / backward / update
//     spans (workers are throttled 1x/2x/4x, so the rows visibly
//     differ in span width);
//   * rows "rank N comm": the async progress engines. During each
//     backward span the corresponding comm row runs bucket_all_reduce
//     spans -- the DDP-style overlap, visible instead of asserted;
//   * row "controller": batch_decision instants carrying the planned
//     total batch and predicted batch time, and model_refit instants
//     comparing that prediction against the measured epoch.
//
// The companion metrics (comm queue/run latencies, reducer overlap
// counters, controller planning cost) are written alongside as
// BENCH_trace_adaptive_epoch.json.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "dnn/model.h"
#include "dnn/zoo.h"
#include "experiments/cannikin_system.h"
#include "experiments/real_training.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"

int main() {
  using namespace cannikin;

  dnn::ZooEntry entry;
  entry.workload = "mixture";
  entry.factory = [] { return dnn::make_mlp(20, 28, 1, 5); };
  entry.dataset = std::make_shared<dnn::InMemoryDataset>(
      dnn::make_gaussian_mixture(/*size=*/3000, /*dim=*/20, /*classes=*/5,
                                 /*separation=*/2.4, /*seed=*/3));
  entry.base_lr = 0.04;
  entry.initial_total_batch = 48;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const obs::Scope scope(&tracer, &metrics);

  // The controller records its decisions on its own timeline row.
  core::ControllerOptions controller;
  controller.initial_total_batch = 48;
  controller.max_total_batch = 192;
  controller.drift_threshold = 1.0;
  controller.obs = scope.for_rank(obs::kControllerTid);
  experiments::CannikinSystem system(
      3, std::vector<double>(3, static_cast<double>(entry.dataset->size())),
      controller);

  dnn::TrainerOptions base;
  base.throttles = {1, 2, 4};  // unequal workers: visible row widths
  base.seed = 9;
  base.bucket_capacity = 256;  // several buckets per sync -> overlap
  base.obs = scope;
  experiments::RealTrainingDriver driver(&system, entry, 3, base);

  // A few epochs so the controller graduates from bootstrap probing to
  // model-based planning: the later batch_decision events carry a real
  // predicted_batch_time for the model_refit events to compare against.
  for (int epoch = 0; epoch < 4; ++epoch) {
    const bool from_model = system.controller().model_ready();
    const auto row = driver.run_epoch();
    std::printf("epoch %d: B=%-4d loss=%.4f %s\n", row.epoch,
                row.total_batch, row.mean_loss,
                from_model ? "(OptPerf plan)" : "(bootstrap)");
  }

  tracer.write_json("trace_adaptive_epoch.json");
  metrics.write_bench_json("BENCH_trace_adaptive_epoch.json",
                           "examples/trace_adaptive_epoch");

  const auto queue = metrics.histogram("comm.queue_us");
  const auto exposed = metrics.histogram("reducer.exposed_wait_us");
  std::printf(
      "\nwrote trace_adaptive_epoch.json (%zu events) -- open in "
      "chrome://tracing or https://ui.perfetto.dev\n"
      "wrote BENCH_trace_adaptive_epoch.json\n"
      "buckets reduced: %.0f (overlapped with backward: %.0f)\n"
      "collective queue latency p50/p99: %.0f/%.0f us, exposed sync wait "
      "p50: %.0f us\n",
      tracer.event_count(), metrics.counter("reducer.buckets_reduced"),
      metrics.counter("reducer.buckets_overlapped"), queue.p50, queue.p99,
      exposed.p50);
  return 0;
}
