// Tests for the threaded data-parallel trainer: the Section 4.3
// equivalence claim (weighted aggregation over uneven local batches
// reproduces the full-batch gradient step), real convergence, and GNS
// estimation from genuine stochastic gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/parallel_trainer.h"
#include "dnn/zoo.h"

namespace cannikin::dnn {
namespace {

InMemoryDataset small_classification(std::size_t size = 600) {
  return make_gaussian_mixture(size, 10, 3, 3.5, 42);
}

std::function<Model()> mlp_factory() {
  return [] { return make_mlp(10, 16, 1, 3); };
}

TrainerOptions base_options(int nodes) {
  TrainerOptions options;
  options.num_nodes = nodes;
  options.base_lr = 0.05;
  options.lr_scaling = LrScaling::kNone;
  options.initial_total_batch = 60;
  options.seed = 7;
  return options;
}

TEST(ParallelTrainer, HeterogeneousSplitMatchesSingleNodeExactly) {
  // Section 4.3: with Eq. (9) aggregation, the update for local batches
  // {30, 20, 10} equals the single-node update at batch 60 over the
  // same samples. The HeteroDataLoader seed fixes identical sample
  // order; parameters must match to floating-point roundoff.
  const auto dataset = small_classification();

  ParallelTrainer single(&dataset, mlp_factory(), base_options(1));
  ParallelTrainer multi(&dataset, mlp_factory(), base_options(3));

  single.run_epoch({60});
  multi.run_epoch({30, 20, 10});

  const auto& ps = single.params();
  const auto& pm = multi.params();
  ASSERT_EQ(ps.size(), pm.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(ps[i] - pm[i]));
  }
  EXPECT_LT(max_diff, 1e-9);
}

TEST(ParallelTrainer, EvenSplitAlsoMatchesSingleNode) {
  const auto dataset = small_classification();
  ParallelTrainer single(&dataset, mlp_factory(), base_options(1));
  ParallelTrainer multi(&dataset, mlp_factory(), base_options(4));
  single.run_epoch({60});
  multi.run_epoch({15, 15, 15, 15});
  for (std::size_t i = 0; i < single.params().size(); ++i) {
    EXPECT_NEAR(single.params()[i], multi.params()[i], 1e-9);
  }
}

TEST(ParallelTrainer, LossDecreasesAndAccuracyRises) {
  const auto dataset = small_classification();
  ParallelTrainer trainer(&dataset, mlp_factory(), base_options(3));
  const double initial_loss = trainer.evaluate_loss(dataset);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    last_loss = trainer.run_epoch({30, 20, 10}).mean_loss;
  }
  EXPECT_LT(trainer.evaluate_loss(dataset), initial_loss);
  EXPECT_LT(last_loss, initial_loss);
  EXPECT_GT(trainer.evaluate_accuracy(dataset), 0.8);
}

TEST(ParallelTrainer, GnsBecomesPositiveAndFinite) {
  const auto dataset = small_classification();
  ParallelTrainer trainer(&dataset, mlp_factory(), base_options(3));
  EpochResult result;
  for (int epoch = 0; epoch < 3; ++epoch) {
    result = trainer.run_epoch({30, 20, 10});
  }
  EXPECT_FALSE(result.gns_samples.empty());
  EXPECT_GE(trainer.current_gns(), 0.0);
  EXPECT_TRUE(std::isfinite(trainer.current_gns()));
}

TEST(ParallelTrainer, BinaryRankingTaskTrains) {
  const auto dataset = make_mf_dataset(800, 8, 30, 40, 0.05, 3);
  TrainerOptions options = base_options(2);
  options.task = TaskKind::kBinaryRanking;
  options.use_adam = true;
  options.base_lr = 0.01;
  options.lr_scaling = LrScaling::kSquareRoot;
  ParallelTrainer trainer(
      &dataset, [] { return make_mlp_regressor(16, 12, 1); }, options);
  const double initial = trainer.evaluate_accuracy(dataset);
  for (int epoch = 0; epoch < 20; ++epoch) {
    trainer.run_epoch({40, 24});
  }
  EXPECT_GT(trainer.evaluate_accuracy(dataset), initial);
  EXPECT_GT(trainer.evaluate_accuracy(dataset), 0.72);
}

TEST(ParallelTrainer, ZeroBatchNodeParticipatesSafely) {
  const auto dataset = small_classification(200);
  ParallelTrainer trainer(&dataset, mlp_factory(), base_options(3));
  // Node 1 gets no work; collectives must still complete and training
  // must still make progress.
  const auto result = trainer.run_epoch({40, 0, 20});
  EXPECT_GT(result.steps, 0);
  EXPECT_TRUE(std::isfinite(result.mean_loss));
}

TEST(ParallelTrainer, Validation) {
  const auto dataset = small_classification(100);
  ParallelTrainer trainer(&dataset, mlp_factory(), base_options(2));
  EXPECT_THROW(trainer.run_epoch({10}), std::invalid_argument);
  EXPECT_THROW(trainer.run_epoch({0, 0}), std::invalid_argument);
  EXPECT_THROW(ParallelTrainer(nullptr, mlp_factory(), base_options(2)),
               std::invalid_argument);
}

TEST(ParallelTrainer, ThrottleValidation) {
  const auto dataset = make_gaussian_mixture(100, 8, 2, 2.0, 8);
  auto factory = [] { return make_mlp(8, 8, 1, 2); };
  TrainerOptions options = base_options(3);
  options.throttles = {1, 2};  // wrong size for 3 nodes
  EXPECT_THROW(ParallelTrainer(&dataset, factory, options),
               std::invalid_argument);
  options.throttles = {1, 0, 2};
  EXPECT_THROW(ParallelTrainer(&dataset, factory, options),
               std::invalid_argument);
  options.throttles = {1, 2, 4};
  EXPECT_THROW(ParallelTrainer(nullptr, factory, options),
               std::invalid_argument);
}

TEST(ParallelTrainer, ThrottleRepsArePureCompute) {
  // A throttled rank repeats forward/backward and discards the extra
  // gradients, so only its clocks may differ from an unthrottled run:
  // parameters, loss and GNS must match bit for bit.
  const auto dataset = small_classification(300);
  TrainerOptions throttled = base_options(2);
  throttled.throttles = {1, 3};
  ParallelTrainer plain(&dataset, mlp_factory(), base_options(2));
  ParallelTrainer slow(&dataset, mlp_factory(), throttled);
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto expected = plain.run_epoch({30, 20});
    const auto actual = slow.run_epoch({30, 20});
    EXPECT_EQ(actual.mean_loss, expected.mean_loss);
    EXPECT_EQ(actual.gns_after, expected.gns_after);
    EXPECT_EQ(slow.params(), plain.params());
  }
}

// FNV-1a over the bit patterns of a run's doubles.
class Fnv1a {
 public:
  void add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TrainerOptions cnn_options(const ZooEntry& entry, comm::BackendKind backend) {
  TrainerOptions options;
  options.num_nodes = 2;
  options.task = entry.task;
  options.base_lr = entry.base_lr;
  options.lr_scaling = entry.lr_scaling;
  options.initial_total_batch = entry.initial_total_batch;
  options.seed = 11;
  options.comm_backend = backend;
  return options;
}

TEST(ParallelTrainer, SeededCnnEpochsArePinned) {
  // The executed trajectory of the conv stand-in -- real conv
  // gradients, Eq. (9) weighting over an uneven 43/21 split, GNS --
  // pinned bit for bit across kernel rewrites. The constant is the
  // digest of the original Conv2d loops.
  const ZooEntry entry = make_standin("cifar10", 256, 5);
  ParallelTrainer thread(entry.dataset.get(), entry.factory,
                         cnn_options(entry, comm::BackendKind::kThread));
  ParallelTrainer event(entry.dataset.get(), entry.factory,
                        cnn_options(entry, comm::BackendKind::kEvent));
  Fnv1a digest;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochResult result = thread.run_epoch({43, 21});
    digest.add(result.mean_loss);
    digest.add(result.gns_after);
    for (double p : thread.params()) digest.add(p);
    event.run_epoch({43, 21});
    EXPECT_EQ(event.params(), thread.params()) << "epoch " << epoch;
  }
  EXPECT_EQ(digest.value(), 0x248fdd5baa3b75e8ULL);
}

TEST(ParallelTrainer, DeterministicAcrossRuns) {
  const auto dataset = small_classification(300);
  ParallelTrainer a(&dataset, mlp_factory(), base_options(3));
  ParallelTrainer b(&dataset, mlp_factory(), base_options(3));
  a.run_epoch({30, 20, 10});
  b.run_epoch({30, 20, 10});
  EXPECT_EQ(a.params(), b.params());
}

}  // namespace
}  // namespace cannikin::dnn
