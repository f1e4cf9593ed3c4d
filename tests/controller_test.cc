// Tests for the CannikinController epoch workflow (Sections 4.1 / 4.5):
// even start, Eq. (8) bootstrap, switch to model-driven OptPerf plans,
// OptPerf_init caching with warm-started overlap search, fixed-batch
// mode, and GNS-driven batch growth.
#include <gtest/gtest.h>

#include <cmath>

#include "core/controller.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::core {
namespace {

sim::ClusterJob make_job() {
  return sim::ClusterJob(sim::cluster_a(),
                         workloads::by_name("cifar10").profile,
                         sim::NoiseConfig::none(), 1);
}

ControllerOptions options_for(const sim::ClusterJob& job, bool adaptive) {
  ControllerOptions options;
  options.initial_total_batch = 64;
  options.max_total_batch = 2048;
  options.adaptive_batch = adaptive;
  (void)job;
  return options;
}

std::vector<double> caps_of(const sim::ClusterJob& job) {
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  return caps;
}

void feed_epoch(CannikinController& controller, sim::ClusterJob& job,
                const std::vector<int>& batches) {
  const auto obs = job.run_epoch(batches, 4);
  std::vector<int> b;
  std::vector<double> a, p, g, to, tu;
  for (const auto& node : obs.nodes) {
    b.push_back(node.local_batch);
    a.push_back(node.a);
    p.push_back(node.p);
    g.push_back(node.gamma);
    to.push_back(node.t_other);
    tu.push_back(node.t_last);
  }
  controller.observe_epoch(b, a, p, g, to, tu);
}

TEST(Controller, FirstEpochIsEvenSplitAtInitialBatch) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  const auto plan = controller.plan_epoch();
  EXPECT_EQ(plan.epoch, 0);
  EXPECT_EQ(plan.total_batch, 64);
  EXPECT_FALSE(plan.from_model);
  int total = 0;
  for (int b : plan.local_batches) {
    EXPECT_NEAR(b, 64 / 3, 1.0);
    total += b;
  }
  EXPECT_EQ(total, 64);
}

TEST(Controller, SecondEpochUsesEq8Bootstrap) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  const auto first = controller.plan_epoch();
  feed_epoch(controller, job, first.local_batches);

  const auto second = controller.plan_epoch();
  EXPECT_FALSE(second.from_model);
  EXPECT_EQ(second.total_batch, 64);
  // Eq. (8): faster nodes (a5000 > a4000 > p4000) get larger batches.
  EXPECT_GT(second.local_batches[0], second.local_batches[1]);
  EXPECT_GT(second.local_batches[1], second.local_batches[2]);
}

TEST(Controller, SwitchesToModelAfterTwoDistinctBatchSizes) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  EXPECT_TRUE(controller.model_ready());
  const auto plan = controller.plan_epoch();
  EXPECT_TRUE(plan.from_model);
  EXPECT_TRUE(plan.cache_rebuilt);  // first model epoch builds OptPerf_init
  EXPECT_GT(plan.predicted_batch_time, 0.0);
  EXPECT_GT(plan.linear_solves, 0);
}

TEST(Controller, LaterEpochsReuseCacheWithoutRebuild) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  controller.update_gns_value(100.0);
  for (int epoch = 0; epoch < 3; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  // Stationary GNS: the overlap state should not flip, so no rebuild.
  const auto plan = controller.plan_epoch();
  EXPECT_TRUE(plan.from_model);
  EXPECT_FALSE(plan.cache_rebuilt);
}

TEST(Controller, GnsGrowthIncreasesChosenBatch) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  controller.update_gns_value(50.0);
  for (int epoch = 0; epoch < 2; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  const auto early = controller.plan_epoch();
  feed_epoch(controller, job, early.local_batches);

  for (int i = 0; i < 30; ++i) controller.update_gns_value(50000.0);
  const auto late = controller.plan_epoch();
  EXPECT_GT(late.total_batch, early.total_batch);
}

TEST(Controller, FixedModeKeepsTotalBatchButOptimizesSplit) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, false));
  std::vector<int> last;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto plan = controller.plan_epoch();
    EXPECT_EQ(plan.total_batch, 64);
    feed_epoch(controller, job, plan.local_batches);
    last = plan.local_batches;
  }
  // Model-driven: the fast a5000 should now carry the largest share.
  EXPECT_GT(last[0], last[2]);
}

TEST(Controller, PlansAlwaysSumToTotalBatch) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  controller.update_gns_value(1000.0);
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto plan = controller.plan_epoch();
    int total = 0;
    for (int b : plan.local_batches) total += b;
    EXPECT_EQ(total, plan.total_batch) << "epoch " << epoch;
    feed_epoch(controller, job, plan.local_batches);
  }
}

TEST(Controller, LearnedModelsApproachTruth) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  for (int epoch = 0; epoch < 6; ++epoch) {
    feed_epoch(controller, job, controller.plan_epoch().local_batches);
  }
  const auto models = controller.learned_models();
  const auto comm = controller.learned_comm();
  ASSERT_TRUE(models && comm);
  for (int i = 0; i < 3; ++i) {
    const auto& truth = job.truth(i);
    const auto& learned = (*models)[static_cast<std::size_t>(i)];
    EXPECT_NEAR(learned.q + learned.k, truth.q + truth.k,
                0.05 * (truth.q + truth.k));
  }
  EXPECT_NEAR(comm->gamma, job.gamma(), 1e-9);
  EXPECT_NEAR(comm->t_other, job.comm().t_other, 1e-9);
}

// The starved-node case, fed to the controller directly (no simulator
// stream): a node probed at two sizes one sample apart can be fitted a
// flat line, OptPerf then plans it at zero samples, and an unobserved
// node's model could never be corrected.
struct LinearNode {
  double q, s, k, m;
  double a(int b) const { return q * b + s; }
  double p(int b) const { return k * b + m; }
};

const LinearNode kTruth[] = {{0.0013, 0.006, 0.0026, 0.010},
                             {0.0026, 0.012, 0.0052, 0.020},
                             {0.0050, 0.020, 0.0100, 0.030}};
const CommTimes kComm{0.15, 0.05, 0.01};

// Feeds one epoch at `batches`; node i's readings are scaled by
// scale[i] (1 = exact truth).
void feed_truth(CannikinController& controller,
                const std::vector<int>& batches,
                const std::vector<double>& scale = {1.0, 1.0, 1.0}) {
  std::vector<double> a, p;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    a.push_back(kTruth[i].a(batches[i]) * scale[i]);
    p.push_back(kTruth[i].p(batches[i]) * scale[i]);
  }
  const std::vector<double> g(3, kComm.gamma), to(3, kComm.t_other),
      tu(3, kComm.t_last);
  controller.observe_epoch(batches, a, p, g, to, tu);
}

ControllerOptions fixed_batch(int total) {
  ControllerOptions options;
  options.initial_total_batch = total;
  options.max_total_batch = total;
  options.adaptive_batch = false;
  return options;
}

TEST(Controller, BootstrapProbesEachNodeAQuarterApart) {
  const std::vector<double> caps(3, 1000.0);
  CannikinController controller(3, caps, fixed_batch(128));
  const auto first = controller.plan_epoch().local_batches;
  ASSERT_EQ(first, (std::vector<int>{43, 43, 42}));
  // Readings that put node 1 at the cluster's mean per-sample speed:
  // Eq. (8) alone would move it by at most one sample.
  const std::vector<double> compute = {0.307, 0.43, 0.825};
  std::vector<double> per_sample;
  for (std::size_t i = 0; i < 3; ++i) {
    per_sample.push_back(compute[i] / first[i]);
  }
  const auto eq8 = bootstrap_assignment(per_sample, 128, caps);
  ASSERT_LE(std::abs(eq8[1] - first[1]), 1);

  const std::vector<double> zero(3, 0.0), g(3, 0.15);
  controller.observe_epoch(first, compute, zero, g, zero, zero);
  const auto second = controller.plan_epoch().local_batches;
  int total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    total += second[i];
    EXPECT_GE(std::abs(second[i] - first[i]),
              static_cast<int>(std::ceil(0.25 * first[i])))
        << "node " << i;
  }
  EXPECT_EQ(total, 128);
  // Eq. (8)'s ordering survives the spread: fastest node largest.
  EXPECT_GT(second[0], second[2]);
}

TEST(Controller, NodePlannedAtZeroIsReprobedAndRecovers) {
  const std::vector<double> caps(3, 1000.0);
  CannikinController controller(3, caps, fixed_batch(128));
  controller.plan_epoch();
  controller.plan_epoch();
  // Node 1 read 2% high at 43 samples and 2% low at 44: its fitted
  // lines come out flat (per-sample cost clamped to ~0) with a large
  // fixed cost.
  feed_truth(controller, {43, 43, 42}, {1.0, 1.02, 1.0});
  feed_truth(controller, {80, 44, 24}, {1.0, 0.98, 1.0});
  const auto flat = controller.learned_models();
  ASSERT_TRUE(flat && controller.learned_comm());
  ASSERT_LT((*flat)[1].q, 1e-6);
  // On that model OptPerf alone starves node 1.
  OptPerfSolver degenerate(*flat, *controller.learned_comm());
  ASSERT_EQ(degenerate.solve(128).local_batches_int[1], 0);

  const auto reprobe = controller.plan_epoch();
  EXPECT_GE(reprobe.local_batches[1], 1);
  EXPECT_EQ(reprobe.local_batches[0] + reprobe.local_batches[1] +
                reprobe.local_batches[2],
            128);
  // Its prediction is for the split that runs, not for OptPerf's.
  const std::vector<double> executed(reprobe.local_batches.begin(),
                                     reprobe.local_batches.end());
  EXPECT_DOUBLE_EQ(reprobe.predicted_batch_time,
                   predicted_batch_time(*flat, degenerate.comm(), executed));
  EXPECT_NE(reprobe.predicted_batch_time, degenerate.solve(128).batch_time);
  // The re-probe's reading identifies node 1's slope; the next plan
  // gives it (close to) its optimal share.
  feed_truth(controller, reprobe.local_batches);
  std::vector<NodeModel> truth;
  for (const auto& node : kTruth) {
    truth.push_back({node.q, node.s, node.k, node.m, 1000.0});
  }
  const auto optimum = OptPerfSolver(truth, kComm).solve(128);
  const auto recovered = controller.plan_epoch();
  EXPECT_NEAR(recovered.local_batches[1], optimum.local_batches_int[1],
              0.2 * optimum.local_batches_int[1]);
}

TEST(Controller, Validation) {
  ControllerOptions bad;
  bad.initial_total_batch = 0;
  bad.max_total_batch = 10;
  EXPECT_THROW(CannikinController(2, {10.0, 10.0}, bad),
               std::invalid_argument);
  ControllerOptions good;
  good.initial_total_batch = 16;
  good.max_total_batch = 64;
  EXPECT_THROW(CannikinController(0, {}, good), std::invalid_argument);
  EXPECT_THROW(CannikinController(2, {10.0}, good), std::invalid_argument);
}

TEST(Controller, ObserveEpochRejectsMismatchedVectors) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  const std::vector<int> b{20, 20, 20};
  const std::vector<double> ok{0.1, 0.1, 0.1};
  const std::vector<double> shorter{0.1, 0.1};
  // Every per-node vector must have exactly num_nodes entries; a length
  // mismatch is a caller bug (e.g. feeding a shrunken allocation's
  // observations to a stale controller) and must fail loudly instead of
  // silently corrupting the learners.
  EXPECT_THROW(controller.observe_epoch({20, 20}, ok, ok, ok, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, shorter, ok, ok, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, shorter, ok, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, ok, shorter, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, ok, ok, shorter, ok),
               std::invalid_argument);
  EXPECT_THROW(controller.observe_epoch(b, ok, ok, ok, ok, shorter),
               std::invalid_argument);
  // A valid observation still goes through afterwards.
  controller.observe_epoch(b, ok, ok, ok, ok, ok);
}

TEST(Controller, UpdateGnsRejectsBadNormVectors) {
  auto job = make_job();
  CannikinController controller(3, caps_of(job), options_for(job, true));
  EXPECT_THROW(controller.update_gns({}, {}, 1.0), std::invalid_argument);
  EXPECT_THROW(controller.update_gns({32.0, 32.0}, {1.0}, 1.0),
               std::invalid_argument);
  controller.update_gns({32.0, 32.0}, {1.0, 1.2}, 0.9);
}

}  // namespace
}  // namespace cannikin::core
