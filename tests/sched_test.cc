// Tests for the scheduler subsystem: model bank (+ serialization),
// goodput allocation, elastic jobs with warm-started models, and a
// multi-job fleet over them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/temp_dir.h"
#include "sched/elastic_job.h"
#include "sched/fleet.h"
#include "sched/model_bank.h"
#include "sched/scheduler.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::sched {
namespace {

// ------------------------------------------------------------- ModelBank

TEST(ModelBank, NodeKeyDistinguishesHardware) {
  sim::NodeSpec a{sim::GpuModel::kA100, "x", 1.0, 2.0};
  sim::NodeSpec b{sim::GpuModel::kA100, "y", 1.0, 2.0};
  sim::NodeSpec c{sim::GpuModel::kA100, "z", 0.5, 2.0};
  sim::NodeSpec d{sim::GpuModel::kV100, "w", 1.0, 2.0};
  // Same hardware combination -> same key regardless of host name.
  EXPECT_EQ(ModelBank::node_key(a), ModelBank::node_key(b));
  EXPECT_NE(ModelBank::node_key(a), ModelBank::node_key(c));
  EXPECT_NE(ModelBank::node_key(a), ModelBank::node_key(d));
}

TEST(ModelBank, StoreAndLookup) {
  ModelBank bank;
  EXPECT_TRUE(bank.empty());
  EXPECT_FALSE(bank.node("a100/h2.000/c1.000").has_value());

  core::NodeModel model{1e-3, 2e-3, 3e-3, 4e-3, 128.0};
  bank.store_node("a100/h2.000/c1.000", model);
  const auto got = bank.node("a100/h2.000/c1.000");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->q, 1e-3);
  EXPECT_DOUBLE_EQ(got->max_batch, 128.0);

  bank.store_comm(16, {0.2, 0.5, 0.1});
  EXPECT_TRUE(bank.comm(16).has_value());
  EXPECT_FALSE(bank.comm(8).has_value());
  EXPECT_FALSE(bank.empty());
}

TEST(ModelBank, SerializationRoundTrip) {
  ModelBank bank;
  bank.store_node("a100/h2.000/c1.000", {1e-3, 2e-3, 3e-3, 4e-3, 128.0});
  bank.store_node("rtx6000/h1.300/c1.000", {5e-3, 6e-3, 7e-3, 8e-3, 64.0});
  bank.store_comm(16, {0.18, 0.52, 0.11});
  bank.store_comm(8, {0.18, 0.31, 0.07});

  const ModelBank restored = ModelBank::deserialize(bank.serialize());
  EXPECT_EQ(restored.num_node_entries(), 2u);
  EXPECT_EQ(restored.num_comm_entries(), 2u);
  const auto node = restored.node("rtx6000/h1.300/c1.000");
  ASSERT_TRUE(node.has_value());
  EXPECT_DOUBLE_EQ(node->k, 7e-3);
  const auto comm = restored.comm(8);
  ASSERT_TRUE(comm.has_value());
  EXPECT_DOUBLE_EQ(comm->t_other, 0.31);
}

TEST(ModelBank, DeserializeRejectsGarbage) {
  EXPECT_THROW(ModelBank::deserialize("nope"), std::invalid_argument);
  EXPECT_THROW(ModelBank::deserialize("modelbank v1\nnode onlykey"),
               std::invalid_argument);
  EXPECT_THROW(ModelBank::deserialize("modelbank v1\nwidget 1 2 3"),
               std::invalid_argument);
}

// ------------------------------------------------------- warm-start prior

TEST(PerfModelPriors, PriorMakesLearnerReadyUntilRealFit) {
  core::NodePerfLearner learner;
  EXPECT_FALSE(learner.ready());
  learner.set_prior({1e-3, 2e-3, 3e-3, 4e-3, 1e9});
  EXPECT_TRUE(learner.ready());
  EXPECT_DOUBLE_EQ(learner.fit()->q, 1e-3);

  // Real observations at two distinct sizes replace the prior.
  learner.observe(10, 0.1, 0.2);
  EXPECT_DOUBLE_EQ(learner.fit()->q, 1e-3);  // still the prior
  learner.observe(20, 0.2, 0.4);
  EXPECT_NEAR(learner.fit()->q, 0.01, 1e-12);  // identified
}

TEST(PerfModelPriors, ControllerWarmStartSkipsBootstrap) {
  const auto& workload = workloads::by_name("cifar10");
  sim::ClusterJob job(sim::cluster_a(), workload.profile,
                      sim::NoiseConfig::none(), 1);
  std::vector<double> caps;
  std::vector<std::optional<core::NodeModel>> priors;
  for (int i = 0; i < job.size(); ++i) {
    caps.push_back(job.max_local_batch(i));
    const auto& t = job.truth(i);
    priors.push_back(core::NodeModel{
        t.q, t.s, t.k, t.m, static_cast<double>(t.max_local_batch)});
  }
  core::ControllerOptions options;
  options.initial_total_batch = workload.b0;
  options.max_total_batch = workload.max_total_batch;
  core::CannikinController controller(job.size(), caps, options);
  controller.warm_start(
      priors,
      core::CommTimes{job.gamma(), job.comm().t_other, job.comm().t_last},
      200.0);

  EXPECT_TRUE(controller.model_ready());
  const auto plan = controller.plan_epoch();
  EXPECT_TRUE(plan.from_model);  // no bootstrap epochs at all
  EXPECT_GT(plan.predicted_batch_time, 0.0);
}

// -------------------------------------------------------------- Scheduler

TEST(GoodputScheduler, EveryNodeAssignedAndMinNodesRespected) {
  GoodputScheduler scheduler(sim::cluster_b());
  const std::vector<SchedulerJobInfo> jobs{
      {&workloads::by_name("cifar10"), 500.0, 2},
      {&workloads::by_name("imagenet"), 1000.0, 2},
  };
  const Allocation allocation = scheduler.allocate(jobs);
  ASSERT_EQ(allocation.num_nodes(), 16);
  for (int node = 0; node < allocation.num_nodes(); ++node) {
    ASSERT_NE(allocation.job_of(node), kNoJob) << "node " << node;
  }
  EXPECT_GE(allocation.size_of(0), 2);
  EXPECT_GE(allocation.size_of(1), 2);
  EXPECT_EQ(allocation.size_of(0) + allocation.size_of(1), 16);
}

TEST(GoodputScheduler, EmptyJobListLeavesNodesIdle) {
  GoodputScheduler scheduler(sim::cluster_a());
  const Allocation allocation = scheduler.allocate({});
  EXPECT_TRUE(allocation.empty());
  EXPECT_EQ(allocation.free_nodes().size(),
            static_cast<std::size_t>(allocation.num_nodes()));
}

TEST(GoodputScheduler, GoodputGrowsWithNodes) {
  GoodputScheduler scheduler(sim::cluster_b());
  const SchedulerJobInfo job{&workloads::by_name("imagenet"), 2000.0, 1};
  const double one = scheduler.estimated_goodput(job, {0});
  const double four = scheduler.estimated_goodput(job, {0, 1, 2, 3});
  const double eight =
      scheduler.estimated_goodput(job, {0, 1, 2, 3, 8, 9, 10, 11});
  EXPECT_GT(one, 0.0);
  EXPECT_GT(four, one);
  EXPECT_GT(eight, four);
  EXPECT_DOUBLE_EQ(scheduler.estimated_goodput(job, {}), 0.0);
}

TEST(GoodputScheduler, ComputeHungryJobGetsTheFastGpus) {
  GoodputScheduler scheduler(sim::cluster_b());
  // ImageNet (compute heavy) vs MovieLens (fixed-cost dominated): the
  // A100s (nodes 0-3) matter far more to ImageNet.
  const std::vector<SchedulerJobInfo> jobs{
      {&workloads::by_name("movielens"), 5000.0, 1},
      {&workloads::by_name("imagenet"), 5000.0, 1},
  };
  const Allocation allocation = scheduler.allocate(jobs);
  int a100_to_imagenet = 0;
  for (int node = 0; node < 4; ++node) {
    if (allocation.job_of(node) == 1) ++a100_to_imagenet;
  }
  EXPECT_GE(a100_to_imagenet, 3);
}

TEST(GoodputScheduler, NodeClassesIgnoreOnlyTheHostName) {
  sim::ClusterSpec cluster;
  cluster.nodes = {
      {sim::GpuModel::kA100, "a", 1.0, 2.0},
      {sim::GpuModel::kA100, "b", 1.0, 2.0},  // differs only in host
      {sim::GpuModel::kA100, "c", 0.5, 2.0},  // contention
      {sim::GpuModel::kA100, "d", 1.0, 1.5},  // host_speed
      {sim::GpuModel::kV100, "e", 1.0, 2.0},  // gpu
      {sim::GpuModel::kA100, "f", 0.5, 2.0},
  };
  const GoodputScheduler scheduler(cluster);
  EXPECT_EQ(scheduler.node_classes(), (std::vector<int>{0, 0, 1, 2, 3, 1}));
}

// The memoized curves must answer bitwise like a cold scheduler, for
// any node order, GNS and workload, after arbitrary earlier traffic.
TEST(GoodputScheduler, WarmAnswersAreBitwiseThoseOfAFreshScheduler) {
  const std::vector<const workloads::Workload*> mix{
      &workloads::by_name("cifar10"), &workloads::by_name("movielens"),
      &workloads::by_name("imagenet")};
  const std::vector<double> gns_values{0.0, 150.0, 2000.0, 40000.0};
  Rng rng(515);
  for (const sim::ClusterSpec& cluster :
       {sim::cluster_a(), sim::cluster_b(), sim::cluster_c()}) {
    std::vector<std::vector<int>> subsets;
    for (int draw = 0; draw < 12; ++draw) {
      std::vector<int> ids(static_cast<std::size_t>(cluster.size()));
      std::iota(ids.begin(), ids.end(), 0);
      std::shuffle(ids.begin(), ids.end(), rng.engine());
      ids.resize(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(cluster.size()))));
      subsets.push_back(ids);
      // The same nodes again in another order: same classes, new key.
      std::shuffle(ids.begin(), ids.end(), rng.engine());
      subsets.push_back(ids);
    }
    const GoodputScheduler warm(cluster);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& ids : subsets) {
        for (const workloads::Workload* workload : mix) {
          for (double gns : gns_values) {
            const SchedulerJobInfo job{workload, gns, 1};
            const double cached = warm.estimated_goodput(job, ids);
            if (pass == 0) continue;
            EXPECT_EQ(cached,
                      GoodputScheduler(cluster).estimated_goodput(job, ids))
                << cluster.name << " " << workload->name << " gns " << gns
                << " on " << ids.size() << " nodes";
          }
        }
      }
    }
  }
}

TEST(GoodputScheduler, WorkloadIsRecognisedByValueNotAddress) {
  const std::vector<int> ids{0, 4, 8, 9};
  workloads::Workload workload = workloads::by_name("cifar10");
  const GoodputScheduler warm(sim::cluster_b());
  const double before = warm.estimated_goodput({&workload, 500.0, 1}, ids);
  // Same address, new contents: the memo must not serve the old curve.
  workload.profile.per_sample_forward *= 3.0;
  workload.max_total_batch /= 2;
  const SchedulerJobInfo job{&workload, 500.0, 1};
  const double after = warm.estimated_goodput(job, ids);
  EXPECT_NE(after, before);
  EXPECT_EQ(after,
            GoodputScheduler(sim::cluster_b()).estimated_goodput(job, ids));
}

TEST(GoodputScheduler, AllocateSubsetIsTheSameColdOrWarm) {
  const auto& cifar = workloads::by_name("cifar10");
  const auto& movielens = workloads::by_name("movielens");
  const auto& imagenet = workloads::by_name("imagenet");
  const std::vector<std::pair<std::vector<SchedulerJobInfo>, std::vector<int>>>
      cases{
          {{{&cifar, 500.0, 2}, {&imagenet, 1000.0, 2}},
           {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
          {{{&movielens, 5000.0, 1}, {&imagenet, 5000.0, 1}},
           {15, 3, 7, 1, 9, 4}},
          {{{&imagenet, 300.0, 1}, {&cifar, 8000.0, 1}, {&movielens, 20.0, 1}},
           {2, 5, 8, 11, 14, 0, 6}},
          {{{&cifar, 500.0, 3}, {&imagenet, 1000.0, 2}}, {2, 3, 5, 7, 11, 13}},
      };
  const GoodputScheduler warm(sim::cluster_b());
  for (const auto& [jobs, pool] : cases) warm.allocate_subset(jobs, pool);
  for (const auto& [jobs, pool] : cases) {
    const Allocation cold =
        GoodputScheduler(sim::cluster_b()).allocate_subset(jobs, pool);
    EXPECT_EQ(warm.allocate_subset(jobs, pool), cold) << cold.to_string();
  }
}

// ------------------------------------------------------------ ElasticJob

TEST(ElasticJob, RunsAndMakesProgress) {
  const auto& workload = workloads::by_name("cifar10");
  ElasticCannikinJob job(&workload, sim::cluster_b(), sim::NoiseConfig{}, 3);
  EXPECT_FALSE(job.has_allocation());
  EXPECT_THROW(job.run_epoch(), std::logic_error);

  job.set_allocation({0, 4, 8, 9});
  ASSERT_TRUE(job.has_allocation());
  double clock = 0.0;
  for (int epoch = 0; epoch < 5; ++epoch) clock += job.run_epoch();
  EXPECT_GT(clock, 0.0);
  EXPECT_GT(job.progress_fraction(), 0.0);
  EXPECT_EQ(job.epochs_run(), 5);
}

TEST(ElasticJob, ReallocationBanksAndWarmStarts) {
  const auto& workload = workloads::by_name("cifar10");
  ElasticCannikinJob job(&workload, sim::cluster_b(), sim::NoiseConfig{}, 3,
                         /*use_model_bank=*/true);
  // First allocation covers one node of each type.
  job.set_allocation({0, 4, 8});
  for (int epoch = 0; epoch < 5; ++epoch) job.run_epoch();
  EXPECT_EQ(job.warm_reallocations(), 0);

  // New allocation: different physical nodes, same hardware types ->
  // fully covered by the bank.
  job.set_allocation({1, 5, 9, 10});
  EXPECT_EQ(job.warm_reallocations(), 1);
  EXPECT_GE(job.bank().num_node_entries(), 3u);

  // The warm-started controller plans from the model immediately.
  const double before = job.progress_fraction();
  job.run_epoch();
  EXPECT_GT(job.progress_fraction(), before);
}

TEST(ElasticJob, WarmStartRecoversFasterThanColdRestart) {
  const auto& workload = workloads::by_name("cifar10");

  auto run = [&](bool use_bank) {
    ElasticCannikinJob job(&workload, sim::cluster_b(), sim::NoiseConfig{},
                           7, use_bank);
    job.set_allocation({0, 4, 8});
    double clock = 0.0;
    for (int epoch = 0; epoch < 6; ++epoch) clock += job.run_epoch();
    // Scale out to different same-type nodes mid-training.
    job.set_allocation({1, 2, 5, 9, 10});
    while (!job.done() && job.epochs_run() < 600) clock += job.run_epoch();
    return clock;
  };

  const double warm = run(true);
  const double cold = run(false);
  // Cold restart repeats the bootstrap epochs at the small initial
  // batch, which is expensive; the bank avoids them.
  EXPECT_LT(warm, cold);
}

// ------------------------------------------------------------- Multi-job

TEST(MultiJob, AllJobsCompleteAndSchedulerBeatsStaticPartition) {
  // Job order chosen so the blind static partition hands the A100s to
  // the fixed-cost-dominated MovieLens job where they are wasted; the
  // goodput scheduler routes them to compute-hungry ImageNet instead.
  const std::vector<const workloads::Workload*> jobs{
      &workloads::by_name("movielens"), &workloads::by_name("imagenet")};
  const TempDir temp("cannikin-multi-job");
  auto run = [&](std::unique_ptr<SchedulingPolicy> policy,
                 const std::string& subdir) {
    FleetOptions options;
    options.seed = 11;
    options.checkpoint_root = (temp.path() / subdir).string();
    FleetSim fleet(sim::cluster_b(), std::move(policy), options);
    for (const workloads::Workload* workload : jobs) {
      JobSpec spec;
      spec.name = workload->name;
      spec.workload = workload;
      fleet.submit(std::move(spec));
    }
    return fleet.run();
  };
  const FleetResult smart =
      run(std::make_unique<GoodputGreedyPolicy>(sim::cluster_b()), "goodput");
  const FleetResult naive =
      run(std::make_unique<StaticPartitionPolicy>(
              sim::cluster_b().size(), static_cast<int>(jobs.size())),
          "static");

  for (const auto& outcome : smart.jobs) {
    EXPECT_GT(outcome.completion_seconds, 0.0) << outcome.workload;
  }
  for (const auto& outcome : naive.jobs) {
    EXPECT_GT(outcome.completion_seconds, 0.0) << outcome.workload;
  }
  // Goodput-aware heterogeneous allocation + elastic scale-up on job
  // completion beats the blind static split.
  EXPECT_LT(smart.makespan, naive.makespan);
  EXPECT_LT(smart.mean_jct, naive.mean_jct * 1.05);
}

}  // namespace
}  // namespace cannikin::sched
