// Tests for the baseline policies: DDP, AdaptDL, LB-BSP, HetPipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "baselines/adaptdl.h"
#include "baselines/ddp.h"
#include "baselines/hetpipe.h"
#include "baselines/lbbsp.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::baselines {
namespace {

sim::ClusterJob make_job(const sim::ClusterSpec& spec) {
  return sim::ClusterJob(spec, workloads::by_name("cifar10").profile,
                         sim::NoiseConfig::none(), 1);
}

std::vector<double> caps_of(const sim::ClusterJob& job) {
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  return caps;
}

// --------------------------------------------------------------------- DDP

TEST(Ddp, EvenSplitFixedForever) {
  auto job = make_job(sim::cluster_a());
  DdpSystem ddp(3, 120, caps_of(job));
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto plan = ddp.plan_epoch();
    EXPECT_EQ(plan.total_batch, 120);
    EXPECT_EQ(plan.local_batches, (std::vector<int>{40, 40, 40}));
    ddp.observe_epoch(job.run_epoch(plan.local_batches, 2));
  }
}

TEST(Ddp, UnevenTotalRoundsToSum) {
  auto job = make_job(sim::cluster_a());
  DdpSystem ddp(3, 100, caps_of(job));
  const auto plan = ddp.plan_epoch();
  int total = 0;
  for (int b : plan.local_batches) total += b;
  EXPECT_EQ(total, 100);
}

TEST(Ddp, Validation) {
  EXPECT_THROW(DdpSystem(0, 10, {}), std::invalid_argument);
  EXPECT_THROW(DdpSystem(2, 0, {10.0, 10.0}), std::invalid_argument);
}

// ----------------------------------------------------------------- LB-BSP

TEST(LbBsp, ConvergesTowardEqualComputeTime) {
  auto job = make_job(sim::cluster_a());
  LbBspSystem lbbsp(3, 120, caps_of(job), 5);

  double first_spread = -1.0;
  double spread = 0.0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const auto plan = lbbsp.plan_epoch();
    const auto obs = job.run_epoch(plan.local_batches, 2);
    lbbsp.observe_epoch(obs);
    double lo = 1e9, hi = 0.0;
    for (const auto& node : obs.nodes) {
      lo = std::min(lo, node.a + node.p);
      hi = std::max(hi, node.a + node.p);
    }
    spread = hi - lo;
    if (first_spread < 0.0) first_spread = spread;
  }
  EXPECT_LT(spread, 0.25 * first_spread);
}

TEST(LbBsp, StepLimitsPerEpochMovement) {
  auto job = make_job(sim::cluster_a());
  LbBspSystem lbbsp(3, 120, caps_of(job), 5);
  auto plan = lbbsp.plan_epoch();
  lbbsp.observe_epoch(job.run_epoch(plan.local_batches, 2));
  const auto before = plan.local_batches;
  plan = lbbsp.plan_epoch();
  for (std::size_t i = 0; i < before.size(); ++i) {
    // Rounding can add one extra sample on top of the +-5 step.
    EXPECT_LE(std::abs(plan.local_batches[i] - before[i]), 6);
  }
}

TEST(LbBsp, BatchesAlwaysSumToTotal) {
  auto job = make_job(sim::cluster_b());
  LbBspSystem lbbsp(16, 256, caps_of(job), 5);
  for (int epoch = 0; epoch < 15; ++epoch) {
    const auto plan = lbbsp.plan_epoch();
    int total = 0;
    for (int b : plan.local_batches) total += b;
    EXPECT_EQ(total, 256);
    lbbsp.observe_epoch(job.run_epoch(plan.local_batches, 2));
  }
}

TEST(LbBsp, SetTotalBatchRescalesProportionally) {
  auto job = make_job(sim::cluster_a());
  LbBspSystem lbbsp(3, 120, caps_of(job), 5);
  for (int epoch = 0; epoch < 30; ++epoch) {
    lbbsp.observe_epoch(job.run_epoch(lbbsp.plan_epoch().local_batches, 2));
  }
  const auto tuned = lbbsp.local_batches();
  lbbsp.set_total_batch(240);
  const auto rescaled = lbbsp.local_batches();
  int total = 0;
  for (std::size_t i = 0; i < rescaled.size(); ++i) {
    total += rescaled[i];
    EXPECT_NEAR(rescaled[i], 2.0 * tuned[i], 3.0);
  }
  EXPECT_EQ(total, 240);
  EXPECT_THROW(lbbsp.set_total_batch(0), std::invalid_argument);
}

// ---------------------------------------------------------------- AdaptDL

TEST(AdaptDl, AlwaysEvenSplit) {
  auto job = make_job(sim::cluster_b());
  AdaptDlSystem adaptdl(16, 64, 4096, caps_of(job));
  adaptdl.observe_gns(500.0);
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto plan = adaptdl.plan_epoch();
    const int expected = plan.total_batch / 16;
    for (int b : plan.local_batches) {
      EXPECT_NEAR(b, expected, 1.0);
    }
    adaptdl.observe_epoch(job.run_epoch(plan.local_batches, 2));
  }
}

TEST(AdaptDl, GrowsBatchWhenNoiseHigh) {
  auto job = make_job(sim::cluster_b());
  AdaptDlSystem adaptdl(16, 64, 4096, caps_of(job));
  adaptdl.observe_gns(1e5);
  int last_total = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto plan = adaptdl.plan_epoch();
    last_total = plan.total_batch;
    adaptdl.observe_epoch(job.run_epoch(plan.local_batches, 2));
  }
  EXPECT_GT(last_total, 1000);
}

TEST(AdaptDl, StaysSmallWhenNoiseLow) {
  auto job = make_job(sim::cluster_b());
  AdaptDlSystem adaptdl(16, 64, 4096, caps_of(job));
  adaptdl.observe_gns(0.0);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto plan = adaptdl.plan_epoch();
    EXPECT_LE(plan.total_batch, 128);
    adaptdl.observe_epoch(job.run_epoch(plan.local_batches, 2));
  }
}

// AdaptDL fits its batch-time line once per observation, not once per
// candidate. After every observation, its predictions off the observed
// sizes must lie on the least-squares line through the current means,
// and it must plan exactly as a fresh system replayed with the same
// observations does.
TEST(AdaptDl, CachedFitMatchesReplay) {
  // Noisy epochs, so repeated sizes move their observed means.
  sim::ClusterJob job(sim::cluster_b(), workloads::by_name("cifar10").profile,
                      sim::NoiseConfig{}, 7);
  AdaptDlSystem live(16, 64, 4096, caps_of(job));
  live.observe_gns(2e3);
  std::vector<sim::EpochObservation> seen;
  std::set<int> sizes;
  auto plan = live.plan_epoch();
  for (int epoch = 0; epoch < 12; ++epoch) {
    sizes.insert(plan.total_batch);
    seen.push_back(job.run_epoch(plan.local_batches, 2));
    live.observe_epoch(seen.back());

    if (sizes.size() >= 2) {
      std::vector<double> xs, ys;
      for (int b : sizes) {
        xs.push_back(b);
        ys.push_back(live.predict_time(b));
      }
      const auto fit = fit_line(xs, ys);
      ASSERT_TRUE(fit.has_value());
      for (int b : {1, 333, 5000}) {
        ASSERT_EQ(sizes.count(b), 0u);
        EXPECT_EQ(live.predict_time(b),
                  std::max(fit->slope * b + fit->intercept, 1e-6))
            << "epoch " << epoch << " b=" << b;
      }
    }

    AdaptDlSystem fresh(16, 64, 4096, caps_of(job));
    fresh.observe_gns(2e3);
    for (const auto& obs : seen) {
      fresh.plan_epoch();
      fresh.observe_epoch(obs);
    }
    const auto expected = fresh.plan_epoch();
    plan = live.plan_epoch();
    EXPECT_EQ(plan.total_batch, expected.total_batch) << "epoch " << epoch;
    EXPECT_EQ(plan.local_batches, expected.local_batches);
  }
  // Both the new-size and the repeated-size paths ran.
  EXPECT_GE(sizes.size(), 3u);
  EXPECT_LT(sizes.size(), seen.size());
}

// ---------------------------------------------------------------- HetPipe

TEST(HetPipe, BatchTimeScalesWithBatchAndBubble) {
  auto job = make_job(sim::cluster_b());
  HetPipeSystem small(&job, 64, 4);
  HetPipeSystem large(&job, 256, 4);
  EXPECT_GT(large.batch_time(), small.batch_time());

  const auto plan = small.plan_epoch();
  EXPECT_GT(plan.batch_time_override, 0.0);
  EXPECT_TRUE(plan.local_batches.empty());
  EXPECT_EQ(plan.total_batch, 64);
}

TEST(HetPipe, FasterClusterFasterPipeline) {
  // Compute-heavy profile and a fast interconnect so stage compute
  // (not activation transfer or launch overhead) dominates the
  // pipeline step; on the default 10 GbE the pipeline is honestly
  // transfer-bound and GPU speed cancels out.
  auto make_heavy = [](sim::ClusterSpec spec) {
    spec.network.bandwidth_bytes_per_s = 12.5e9;  // 100 Gbps
    return sim::ClusterJob(spec, workloads::by_name("imagenet").profile,
                           sim::NoiseConfig::none(), 1);
  };
  auto b = make_heavy(sim::cluster_b());
  auto c = make_heavy(sim::cluster_c());  // contended RTX-only cluster
  HetPipeSystem on_b(&b, 128, 4);
  HetPipeSystem on_c(&c, 128, 4);
  EXPECT_LT(on_b.batch_time(), on_c.batch_time());
}

// The partition is memoized on the node speeds: after contention
// changes, batch_time() must equal that of a fresh system on the same
// job, and repeated calls must return the same bits.
TEST(HetPipe, PartitionMemoFollowsContention) {
  auto spec = sim::cluster_b();
  spec.network.bandwidth_bytes_per_s = 12.5e9;  // compute-bound pipeline
  sim::ClusterJob job(spec, workloads::by_name("imagenet").profile,
                      sim::NoiseConfig::none(), 1);
  HetPipeSystem memo(&job, 128, 4);
  const double before = memo.batch_time();
  EXPECT_EQ(memo.batch_time(), before);

  job.set_contention(0, 0.3);
  job.set_contention(9, 0.6);
  const double after = memo.batch_time();
  EXPECT_NE(after, before);
  EXPECT_EQ(after, HetPipeSystem(&job, 128, 4).batch_time());
  EXPECT_EQ(memo.batch_time(), after);
  EXPECT_EQ(memo.plan_epoch().batch_time_override, after);

  job.set_contention(0, 1.0);
  job.set_contention(9, 1.0);
  EXPECT_EQ(memo.batch_time(), before);
}

TEST(HetPipe, Validation) {
  auto job = make_job(sim::cluster_a());
  EXPECT_THROW(HetPipeSystem(nullptr, 64), std::invalid_argument);
  EXPECT_THROW(HetPipeSystem(&job, 0), std::invalid_argument);
  EXPECT_THROW(HetPipeSystem(&job, 64, 0), std::invalid_argument);
}

}  // namespace
}  // namespace cannikin::baselines
