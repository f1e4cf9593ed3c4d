// Tests for the online performance-model learner (Sections 3.2 / 4.5):
// per-node linear fits, shared-parameter combination, readiness rules,
// and the inverse-variance-vs-mean ablation of Section 5.3.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/perf_model.h"

namespace cannikin::core {
namespace {

TEST(NodePerfLearner, NotReadyUntilTwoDistinctBatches) {
  NodePerfLearner learner;
  EXPECT_FALSE(learner.ready());
  learner.observe(32, 0.1, 0.2);
  EXPECT_FALSE(learner.ready());
  learner.observe(32, 0.1, 0.2);  // same batch size: still 1 point
  EXPECT_FALSE(learner.ready());
  EXPECT_FALSE(learner.fit().has_value());
  learner.observe(64, 0.15, 0.3);
  EXPECT_TRUE(learner.ready());
  EXPECT_EQ(learner.num_distinct_batches(), 2u);
}

TEST(NodePerfLearner, RecoversExactLinearModel) {
  // a(b) = 0.002 b + 0.01, P(b) = 0.004 b + 0.005 (Eq. 3).
  NodePerfLearner learner;
  for (int b : {16, 32, 64, 128}) {
    learner.observe(b, 0.002 * b + 0.01, 0.004 * b + 0.005);
  }
  const auto model = learner.fit();
  ASSERT_TRUE(model.has_value());
  EXPECT_NEAR(model->q, 0.002, 1e-12);
  EXPECT_NEAR(model->s, 0.01, 1e-12);
  EXPECT_NEAR(model->k, 0.004, 1e-12);
  EXPECT_NEAR(model->m, 0.005, 1e-12);
}

TEST(NodePerfLearner, RepeatedObservationsRefineUnderNoise) {
  const std::uint64_t seed = mix64(1);
  std::uint64_t draw = 0;
  NodePerfLearner noisy_few, noisy_many;
  auto a_true = [](int b) { return 0.002 * b + 0.01; };
  auto p_true = [](int b) { return 0.004 * b + 0.005; };
  for (int rep = 0; rep < 50; ++rep) {
    for (int b : {16, 64, 256}) {
      const double a =
          a_true(b) * lognormal_jitter(0.05, hash_combine(seed, draw++));
      const double p =
          p_true(b) * lognormal_jitter(0.05, hash_combine(seed, draw++));
      noisy_many.observe(b, a, p);
      if (rep == 0) noisy_few.observe(b, a, p);
    }
  }
  const auto few = noisy_few.fit();
  const auto many = noisy_many.fit();
  ASSERT_TRUE(few && many);
  EXPECT_LT(std::abs(many->q - 0.002), std::abs(few->q - 0.002) + 1e-4);
  EXPECT_NEAR(many->q, 0.002, 2e-4);
  EXPECT_NEAR(many->k, 0.004, 4e-4);
}

TEST(NodePerfLearner, ClampsUnphysicalCoefficients) {
  NodePerfLearner learner;
  // Decreasing observations would fit a negative slope.
  learner.observe(10, 0.2, 0.2);
  learner.observe(100, 0.1, 0.1);
  const auto model = learner.fit();
  ASSERT_TRUE(model.has_value());
  EXPECT_GT(model->q, 0.0);
  EXPECT_GE(model->s, 0.0);
}

TEST(NodePerfLearner, Validation) {
  NodePerfLearner learner;
  EXPECT_THROW(learner.observe(0, 0.1, 0.1), std::invalid_argument);
  EXPECT_THROW(learner.observe(8, -0.1, 0.1), std::invalid_argument);
}

TEST(CommParamLearner, CombinesAcrossNodes) {
  CommParamLearner learner(3);
  EXPECT_FALSE(learner.ready());
  EXPECT_FALSE(learner.estimate().has_value());
  for (int node = 0; node < 3; ++node) {
    learner.observe(node, 0.2, 0.5, 0.1);
  }
  ASSERT_TRUE(learner.ready());
  const auto est = learner.estimate();
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->gamma, 0.2, 1e-12);
  EXPECT_NEAR(est->t_other, 0.5, 1e-12);
  EXPECT_NEAR(est->t_last, 0.1, 1e-12);
  EXPECT_NEAR(est->total(), 0.6, 1e-12);
}

TEST(CommParamLearner, InverseVarianceBeatsMeanUnderHeteroscedasticNoise) {
  // Node 0 measures precisely, node 1 is very noisy and biased upward
  // by its log-normal error; inverse-variance weighting must land
  // closer to the truth than plain averaging, consistently.
  const double truth = 0.2;
  const std::uint64_t seed = mix64(9);
  std::uint64_t draw = 0;
  double ivw_err = 0.0, mean_err = 0.0;
  const int repetitions = 40;
  for (int rep = 0; rep < repetitions; ++rep) {
    CommParamLearner ivw(2, CombineMode::kInverseVariance);
    CommParamLearner avg(2, CombineMode::kMean);
    for (int epoch = 0; epoch < 30; ++epoch) {
      const double clean =
          truth * lognormal_jitter(0.01, hash_combine(seed, draw++));
      const double noisy =
          truth * lognormal_jitter(0.5, hash_combine(seed, draw++));
      ivw.observe(0, clean, clean, clean);
      ivw.observe(1, noisy, noisy, noisy);
      avg.observe(0, clean, clean, clean);
      avg.observe(1, noisy, noisy, noisy);
    }
    ivw_err += std::abs(ivw.estimate()->gamma - truth);
    mean_err += std::abs(avg.estimate()->gamma - truth);
  }
  EXPECT_LT(ivw_err, mean_err);
}

TEST(CommParamLearner, Validation) {
  EXPECT_THROW(CommParamLearner(0), std::invalid_argument);
  CommParamLearner learner(2);
  EXPECT_THROW(learner.observe(5, 0.1, 0.1, 0.1), std::out_of_range);
}

TEST(ClusterPerfModel, ReadyOnlyWhenAllNodesReady) {
  ClusterPerfModel model(2);
  model.observe_epoch({16, 16}, {0.1, 0.2}, {0.2, 0.4}, {0.2, 0.2},
                      {0.5, 0.5}, {0.1, 0.1});
  EXPECT_FALSE(model.ready());
  // Node 1 receives no work in epoch 2: it stays at one batch size.
  model.observe_epoch({32, 0}, {0.15, 0.0}, {0.3, 0.0}, {0.2, 0.0},
                      {0.5, 0.0}, {0.1, 0.0});
  EXPECT_FALSE(model.ready());
  model.observe_epoch({32, 32}, {0.15, 0.3}, {0.3, 0.6}, {0.2, 0.2},
                      {0.5, 0.5}, {0.1, 0.1});
  EXPECT_TRUE(model.ready());

  const auto models = model.node_models();
  ASSERT_TRUE(models.has_value());
  ASSERT_EQ(models->size(), 2u);
  EXPECT_NEAR((*models)[0].q + (*models)[0].k, (0.45 - 0.3) / 16.0, 1e-9);
}

TEST(ClusterPerfModel, CapsPropagateToModels) {
  ClusterPerfModel model(2);
  model.set_max_batches({100.0, 200.0});
  model.observe_epoch({16, 16}, {0.1, 0.2}, {0.2, 0.4}, {0.2, 0.2},
                      {0.5, 0.5}, {0.1, 0.1});
  model.observe_epoch({32, 32}, {0.15, 0.3}, {0.3, 0.6}, {0.2, 0.2},
                      {0.5, 0.5}, {0.1, 0.1});
  const auto models = model.node_models();
  ASSERT_TRUE(models.has_value());
  EXPECT_DOUBLE_EQ((*models)[0].max_batch, 100.0);
  EXPECT_DOUBLE_EQ((*models)[1].max_batch, 200.0);
  EXPECT_THROW(model.set_max_batches({1.0}), std::invalid_argument);
}

TEST(ClusterPerfModel, SizeMismatchThrows) {
  ClusterPerfModel model(2);
  EXPECT_THROW(model.observe_epoch({16}, {0.1}, {0.2}, {0.2}, {0.5}, {0.1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cannikin::core
