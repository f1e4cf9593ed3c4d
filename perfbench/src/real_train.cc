// real_train: real gradients. One op is one dnn::ParallelTrainer::run_epoch
// of the cifar10 CNN stand-in on 2 ThreadBackend ranks (2 workers plus
// 2 progress-engine threads).
//
// The local batches come from a CannikinSystem warmed on a seeded
// simulated two-speed cluster, never from measured thread timings: a
// closed loop over real clocks (RealTrainingDriver) would make batches,
// loss and parameters differ from run to run.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "comm/backend.h"
#include "dnn/parallel_trainer.h"
#include "dnn/zoo.h"
#include "experiments/cannikin_system.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

using namespace cannikin;

constexpr int kRanks = 2;
constexpr int kTotalBatch = 64;
constexpr std::size_t kDatasetSize = 1024;  // 16 steps per epoch
constexpr int kSplits = 16;

/// Uneven splits of kTotalBatch planned by fixed-total-batch Cannikin
/// on a simulated two-speed pair (speed ratio 2) with seeded noise.
std::vector<std::vector<int>> plan_splits(std::uint64_t seed) {
  const auto& workload = workloads::by_name("cifar10");
  sim::ClusterJob job(sim::two_speed_cluster(kRanks, 2.0), workload.profile,
                      sim::NoiseConfig{}, mix(seed, 12));
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  experiments::CannikinSystem system(kRanks, caps, kTotalBatch, kTotalBatch,
                                     /*adaptive=*/false);
  std::vector<std::vector<int>> splits;
  for (int epoch = 0; epoch < 4 + kSplits; ++epoch) {
    const auto plan = system.plan_epoch();
    if (epoch >= 4) splits.push_back(plan.local_batches);
    system.observe_epoch(job.run_epoch(plan.local_batches, 8,
                                       plan.accumulation_steps));
  }
  return splits;
}

dnn::TrainerOptions trainer_options(const dnn::ZooEntry& entry,
                                    std::uint64_t seed,
                                    comm::BackendKind backend) {
  dnn::TrainerOptions options;
  options.num_nodes = kRanks;
  options.task = entry.task;
  options.base_lr = entry.base_lr;
  options.lr_scaling = entry.lr_scaling;
  options.use_adam = entry.use_adam;
  options.initial_total_batch = entry.initial_total_batch;
  options.seed = seed;
  options.comm_backend = backend;
  // A hung rank surfaces as a typed CommAbortedError (a failed op)
  // instead of a stuck benchmark.
  options.comm_timeout_seconds = 30.0;
  return options;
}

std::uint64_t hash_params(const std::vector<double>& params) {
  Digest digest;
  for (double v : params) digest.add(v);
  return digest.value();
}

class RealTrain final : public Workload {
 public:
  explicit RealTrain(std::uint64_t seed)
      : seed_(seed),
        splits_(plan_splits(seed)),
        entry_(dnn::make_standin("cifar10", kDatasetSize, mix(seed, 13))) {
    // Warm-up epoch on a throwaway replica: first-touch of code and
    // memory, thread start-up, kernel arenas.
    dnn::ParallelTrainer warm(entry_.dataset.get(), entry_.factory,
                              options(comm::BackendKind::kThread));
    warm.run_epoch(splits_[0]);
    trainer_ = std::make_unique<dnn::ParallelTrainer>(
        entry_.dataset.get(), entry_.factory,
        options(comm::BackendKind::kThread));
  }

  void prepare(long k) override {
    split_ = &splits_[static_cast<std::size_t>(k % kSplits)];
  }

  void run(long) override {
    double seconds = 0.0;
    result_ = timed(spans_, "dnn", "run_epoch", &seconds,
                    [&] { return trainer_->run_epoch(*split_); });
  }

  std::uint64_t finish(long k, bool* failed) override {
    *failed = false;
    const auto& r = result_;
    checker_.require(std::isfinite(r.mean_loss), "non-finite epoch loss");
    checker_.require(r.steps > 0 && static_cast<int>(r.node_timings.size()) ==
                                        kRanks,
                     "epoch ran no steps or lost a rank's timings");
    int total = 0;
    for (int b : *split_) total += b;
    checker_.require(total == kTotalBatch && (*split_)[0] != (*split_)[1],
                     "split is not an uneven partition of the total batch");
    losses_.push_back(r.mean_loss);
    if (k == 0) {
      first_params_ = trainer_->params();
      if (corrupt_param_) {
        first_params_[0] = std::nextafter(first_params_[0], INFINITY);
      }
    }

    Digest digest;
    for (int b : *split_) digest.add(b);
    digest.add(r.steps);
    digest.add(r.mean_loss);
    digest.add(r.train_accuracy);
    digest.add(r.gns_after);
    digest.add(hash_params(trainer_->params()));

    samples_ = static_cast<double>(r.steps) * kTotalBatch;
    double worst = 0.0;
    double a = 0.0, p = 0.0, comm = 0.0, exposed = 0.0;
    for (const auto& t : r.node_timings) {
      const double c = t.t_other + t.t_last;
      const double e = (1.0 - t.gamma) * c;
      a += t.a;
      p += t.p;
      comm += c;
      exposed += e;
      worst = std::max(worst, t.a + t.p + e);
    }
    const double ranks = static_cast<double>(r.node_timings.size());
    if (r.steps > 0 && ranks > 0) {
      stats_.sample("dnn.a_ms", a / ranks * 1e3);
      stats_.sample("dnn.p_ms", p / ranks * 1e3);
      stats_.sample("comm.thread.comm_ms", comm / ranks * 1e3);
      stats_.sample("comm.thread.exposed_ms", exposed / ranks * 1e3);
      stats_.sample("dnn.unexplained_ms",
                    (r.epoch_seconds / r.steps - worst) * 1e3);
      stats_.count("dnn.steps", r.steps);
    }
    return digest.value();
  }

  double samples(long) const override { return samples_; }
  long input_classes() const override { return kSplits; }
  int cpus_per_op() const override { return kRanks; }

  void final_checks() override {
    // The loss must fall: the last epochs against the first.
    const std::size_t n = losses_.size();
    if (n >= 10) {
      double tail = 0.0;
      for (std::size_t i = n - 5; i < n; ++i) tail += losses_[i];
      checker_.require(tail / 5.0 < losses_[0],
                       "training loss did not fall");
    }
    // Backend parity: the same first epoch on the event backend must
    // give bitwise-identical parameters.
    dnn::ParallelTrainer event(entry_.dataset.get(), entry_.factory,
                               options(comm::BackendKind::kEvent));
    event.run_epoch(splits_[0]);
    checker_.require(!first_params_.empty() && event.params() == first_params_,
                     "event-backend epoch differs from thread-backend epoch");
  }

  void corrupt() override { corrupt_param_ = true; }

  LayerMetrics layer_metrics(const LayerStats& stats,
                             double ops) const override {
    return {
        {"comm.thread.comm_ms_per_batch",
         percentile(stats.samples("comm.thread.comm_ms"), 0.5)},
        {"comm.thread.exposed_ms_per_batch",
         percentile(stats.samples("comm.thread.exposed_ms"), 0.5)},
        {"dnn.forward_update_ms_per_batch",
         percentile(stats.samples("dnn.a_ms"), 0.5)},
        {"dnn.backward_ms_per_batch",
         percentile(stats.samples("dnn.p_ms"), 0.5)},
        {"dnn.unexplained_ms_per_batch",
         percentile(stats.samples("dnn.unexplained_ms"), 0.5)},
        {"dnn.steps", stats.total("dnn.steps") / ops},
    };
  }

 private:
  dnn::TrainerOptions options(comm::BackendKind backend) const {
    return trainer_options(entry_, mix(seed_, 14), backend);
  }

  std::uint64_t seed_;
  std::vector<std::vector<int>> splits_;
  dnn::ZooEntry entry_;
  std::unique_ptr<dnn::ParallelTrainer> trainer_;

  const std::vector<int>* split_ = nullptr;
  dnn::EpochResult result_;
  std::vector<double> losses_;
  std::vector<double> first_params_;
  bool corrupt_param_ = false;  // self-test: damage op 0's parameters
  double samples_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_real_train(std::uint64_t seed) {
  return std::make_unique<RealTrain>(seed);
}

}  // namespace perfbench
