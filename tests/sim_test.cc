// Unit + property tests for src/sim: GPU catalog, network model,
// bucketized batch timeline (Figures 1-3) and the simulated cluster.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/cluster.h"
#include "sim/cluster_factory.h"
#include "sim/gpu.h"
#include "sim/network.h"
#include "sim/timeline.h"

namespace cannikin::sim {
namespace {

// -------------------------------------------------------------------- gpu

TEST(GpuCatalog, ContainsPaperGpus) {
  EXPECT_DOUBLE_EQ(gpu_spec(GpuModel::kRtx6000).relative_speed, 1.0);
  // Section 6: the A100 is 3.42x an RTX 6000.
  EXPECT_DOUBLE_EQ(gpu_spec(GpuModel::kA100).relative_speed, 3.42);
  EXPECT_EQ(parse_gpu_model("v100"), GpuModel::kV100);
  EXPECT_THROW(parse_gpu_model("tpu"), std::invalid_argument);
}

TEST(GpuCatalog, SpeedsOrderedLikeHardwareGenerations) {
  EXPECT_LT(gpu_spec(GpuModel::kP100).relative_speed,
            gpu_spec(GpuModel::kV100).relative_speed);
  EXPECT_LT(gpu_spec(GpuModel::kV100).relative_speed,
            gpu_spec(GpuModel::kA100).relative_speed);
  EXPECT_LT(gpu_spec(GpuModel::kA100).relative_speed,
            gpu_spec(GpuModel::kH100).relative_speed);
}

// ---------------------------------------------------------------- network

TEST(NetworkModel, SingleNodeIsFree) {
  NetworkModel net;
  EXPECT_DOUBLE_EQ(net.all_reduce_time(1e9, 1), 0.0);
}

TEST(NetworkModel, RingCostFormula) {
  NetworkModel net;
  net.bandwidth_bytes_per_s = 1e9;
  net.latency_s = 1e-4;
  const int n = 4;
  const double bytes = 8e8;
  const double expected = 2.0 * 3 * (bytes / 4) / 1e9 + 2.0 * 3 * 1e-4;
  EXPECT_NEAR(net.all_reduce_time(bytes, n), expected, 1e-12);
}

TEST(NetworkModel, TimeGrowsWithClusterSize) {
  NetworkModel net;
  const double bytes = 1e8;
  double previous = 0.0;
  for (int n = 2; n <= 16; n *= 2) {
    const double t = net.all_reduce_time(bytes, n);
    EXPECT_GT(t, previous);
    previous = t;
  }
}

TEST(CommSchedule, BucketTimesSumToTotal) {
  NetworkModel net;
  const auto schedule = make_comm_schedule(net, 104e6, 25e6, 8);
  EXPECT_EQ(schedule.num_buckets, 5);
  double total = 0.0;
  for (int j = 0; j < schedule.num_buckets; ++j) {
    total += schedule.bucket_time(j);
  }
  EXPECT_NEAR(total, schedule.total(), 1e-12);
  EXPECT_NEAR(schedule.total(), net.all_reduce_time(104e6, 8), 1e-12);
  EXPECT_THROW(schedule.bucket_time(5), std::out_of_range);
}

TEST(CommSchedule, SingleBucketHasNoOverlapPortion) {
  NetworkModel net;
  const auto schedule = make_comm_schedule(net, 10e6, 25e6, 4);
  EXPECT_EQ(schedule.num_buckets, 1);
  EXPECT_DOUBLE_EQ(schedule.t_other, 0.0);
  EXPECT_GT(schedule.t_last, 0.0);
}

// --------------------------------------------------------------- timeline

TEST(BucketReadyTime, EndpointsMatchSyncStartAndComputeEnd) {
  NodeBatchTiming node{0.4, 1.0, 0.2};
  const int nb = 5;
  EXPECT_NEAR(bucket_ready_time(node, 0, nb), node.sync_start(), 1e-12);
  EXPECT_NEAR(bucket_ready_time(node, nb - 1, nb), node.compute_time(),
              1e-12);
  // Evenly spaced in between.
  const double gap = bucket_ready_time(node, 1, nb) -
                     bucket_ready_time(node, 0, nb);
  EXPECT_NEAR(bucket_ready_time(node, 3, nb) -
                  bucket_ready_time(node, 2, nb),
              gap, 1e-12);
}

TEST(BucketReadyTime, SingleBucketReadyAtComputeEnd) {
  NodeBatchTiming node{0.4, 1.0, 0.2};
  EXPECT_NEAR(bucket_ready_time(node, 0, 1), 1.4, 1e-12);
}

TEST(SimulateBatch, ComputeBottleneckMatchesEq5) {
  // One node, huge backprop relative to communication: Eq. (5).
  CommSchedule comm{5, 0.04, 0.01};
  NodeBatchTiming node{0.2, 2.0, 0.1};
  ASSERT_GE((1.0 - node.gamma) * node.p, comm.t_other);
  const auto timeline = simulate_batch({node}, comm);
  EXPECT_NEAR(timeline.batch_time, node.compute_time() + comm.t_last, 1e-12);
}

TEST(SimulateBatch, CommBottleneckMatchesEq6) {
  // Communication dominates: Eq. (6).
  CommSchedule comm{5, 1.6, 0.4};
  NodeBatchTiming node{0.2, 0.5, 0.1};
  ASSERT_LT((1.0 - node.gamma) * node.p, comm.t_other);
  const auto timeline = simulate_batch({node}, comm);
  EXPECT_NEAR(timeline.batch_time, node.sync_start() + comm.total(), 1e-12);
  EXPECT_TRUE(timeline.communication_saturated);
}

TEST(SimulateBatch, BucketStartsAreMonotone) {
  CommSchedule comm{4, 0.3, 0.1};
  const std::vector<NodeBatchTiming> nodes{{0.1, 1.0, 0.2}, {0.5, 0.4, 0.2}};
  const auto timeline = simulate_batch(nodes, comm);
  for (std::size_t j = 1; j < timeline.bucket_start.size(); ++j) {
    EXPECT_GE(timeline.bucket_start[j], timeline.bucket_finish[j - 1] - 1e-12);
    EXPECT_GE(timeline.bucket_start[j], timeline.bucket_start[j - 1]);
  }
}

// The core timeline property (Section 3.3): under the evenly-distributed
// bucket assumption, the event-level simulation equals the paper's
// closed form Eq. (7) for every cluster composition.
class TimelineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TimelineEquivalence, EventSimMatchesClosedForm) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const int buckets = static_cast<int>(rng.uniform_int(1, 12));
    CommSchedule comm;
    comm.num_buckets = buckets;
    const double total_comm = rng.uniform(0.01, 2.0);
    comm.t_last = buckets == 1 ? total_comm : total_comm / buckets;
    comm.t_other = total_comm - comm.t_last;

    std::vector<NodeBatchTiming> nodes;
    const double gamma = rng.uniform(0.05, 0.6);
    for (int i = 0; i < n; ++i) {
      nodes.push_back({rng.uniform(0.01, 1.0), rng.uniform(0.01, 3.0), gamma});
    }
    const auto timeline = simulate_batch(nodes, comm);
    const double closed = closed_form_batch_time(nodes, comm);
    EXPECT_NEAR(timeline.batch_time, closed, 1e-9)
        << "n=" << n << " buckets=" << buckets;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

// The allocation-free kernel under ClusterJob::run_epoch must give
// simulate_batch's batch time to the bit: the same readiness formula,
// maxima and bucket chain, folded node by node instead of bucket by
// bucket. Covers single nodes, 1024 nodes, single and many buckets,
// gamma at both ends of (0, 1), nodes with a zero local batch (fixed
// costs only, or none at all), nodes tied with an earlier node, and a
// kernel reused across batches.
TEST(BatchTimeKernel, BitwiseEqualsSimulateBatch) {
  Rng rng(29);
  for (int n : {1, 2, 16, 1024}) {
    for (int buckets : {1, 2, 7, 40}) {
      CommSchedule comm;
      comm.num_buckets = buckets;
      const double total_comm = rng.uniform(0.01, 2.0);
      comm.t_last = buckets == 1 ? total_comm : total_comm / buckets;
      comm.t_other = total_comm - comm.t_last;
      for (double gamma : {1e-9, 1e-3, rng.uniform(0.05, 0.6), 1.0 - 1e-3,
                           1.0 - 1e-9}) {
        BatchTimeKernel kernel(comm, gamma);
        for (int batch = 0; batch < 3; ++batch) {
          std::vector<NodeBatchTiming> nodes;
          for (int i = 0; i < n; ++i) {
            const double kind = rng.uniform();
            NodeBatchTiming node{0.0, 0.0, gamma};
            if (kind < 0.2 && !nodes.empty()) {
              // Ties with an earlier node: all of it, or its a or p.
              node = nodes[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))];
              if (kind < 0.05) node.a = rng.uniform(0.01, 1.0);
              if (kind >= 0.15) node.p = rng.uniform(0.01, 3.0);
            } else if (kind >= 0.3) {
              // A zero-batch node keeps only its fixed costs s and m.
              const double scale = kind < 0.5 ? 1e-3 : 1.0;
              node.a = scale * rng.uniform(0.01, 1.0);
              node.p = scale * rng.uniform(0.01, 3.0);
            }
            nodes.push_back(node);
            kernel.add(node.a, node.p);
          }
          EXPECT_EQ(kernel.finish_batch(),
                    simulate_batch(nodes, comm).batch_time)
              << "n=" << n << " buckets=" << buckets << " gamma=" << gamma;
        }
      }
    }
  }
}

TEST(SimulateBatch, EmptyClusterThrows) {
  CommSchedule comm{1, 0.0, 0.1};
  EXPECT_THROW(simulate_batch({}, comm), std::invalid_argument);
  EXPECT_THROW(closed_form_batch_time({}, comm), std::invalid_argument);
}

// ---------------------------------------------------------------- cluster

JobProfile small_job() {
  JobProfile job;
  job.name = "test";
  job.per_sample_forward = 1e-3;
  job.fixed_forward = 5e-3;
  job.per_sample_backward = 2e-3;
  job.fixed_backward = 1e-3;
  job.gradient_bytes = 50e6;
  job.gamma = 0.2;
  job.mem_bytes_per_sample = 10e6;
  return job;
}

TEST(ClusterJob, TruthScalesInverselyWithSpeed) {
  ClusterJob job(cluster_a(), small_job(), NoiseConfig::none(), 1);
  // Node 0 is an A5000 (1.9x), node 2 a P4000 (0.45x).
  const double ratio = job.truth(2).q / job.truth(0).q;
  EXPECT_NEAR(ratio, 1.9 / 0.45, 1e-9);
  EXPECT_NEAR(job.truth(0).q, 1e-3 / 1.9, 1e-12);
  EXPECT_NEAR(job.truth(0).m, 1e-3 / 1.9, 1e-12);
}

TEST(ClusterJob, MemoryCapReflectsDeviceMemory) {
  ClusterJob job(cluster_a(), small_job(), NoiseConfig::none(), 1);
  // A5000: 24 GB * 0.8 / 10 MB = 1920 samples.
  EXPECT_EQ(job.max_local_batch(0), 1920);
  // P4000: 8 GB * 0.8 / 10 MB = 640.
  EXPECT_EQ(job.max_local_batch(2), 640);
  EXPECT_EQ(job.max_total_batch(), 1920 + 1280 + 640);
}

TEST(ClusterJob, TrueBatchTimeMatchesClosedFormOfTruth) {
  ClusterJob job(cluster_a(), small_job(), NoiseConfig::none(), 1);
  const std::vector<double> batches{30.0, 20.0, 10.0};
  std::vector<NodeBatchTiming> timings;
  for (int i = 0; i < job.size(); ++i) {
    const auto& t = job.truth(i);
    timings.push_back({t.a(batches[static_cast<std::size_t>(i)]),
                       t.p(batches[static_cast<std::size_t>(i)]),
                       job.gamma()});
  }
  EXPECT_NEAR(job.true_batch_time(batches),
              closed_form_batch_time(timings, job.comm()), 1e-12);
}

// true_batch_time runs the kernel; the full timeline is its reference.
TEST(ClusterJob, TrueBatchTimeIsTimelineBatchTime) {
  for (const auto& spec : {cluster_a(), cluster_b(), cluster_c()}) {
    ClusterJob job(spec, small_job(), NoiseConfig::none(), 1);
    std::vector<double> batches;
    for (int i = 0; i < job.size(); ++i) batches.push_back(i * 7 % 23 + 0.5);
    batches[0] = 0.0;
    EXPECT_EQ(job.true_batch_time(batches),
              job.true_timeline(batches).batch_time);
  }
}

TEST(ClusterJob, NoiselessObservationsEqualTruth) {
  ClusterJob job(cluster_a(), small_job(), NoiseConfig::none(), 1);
  const std::vector<int> batches{30, 20, 10};
  const auto epoch = job.run_epoch(batches, 4);
  ASSERT_EQ(epoch.nodes.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto& truth = job.truth(i);
    const auto& obs = epoch.nodes[static_cast<std::size_t>(i)];
    EXPECT_NEAR(obs.a, truth.a(batches[static_cast<std::size_t>(i)]), 1e-12);
    EXPECT_NEAR(obs.p, truth.p(batches[static_cast<std::size_t>(i)]), 1e-12);
    EXPECT_NEAR(obs.gamma, job.gamma(), 1e-12);
    EXPECT_NEAR(obs.t_other, job.comm().t_other, 1e-12);
    EXPECT_NEAR(obs.t_last, job.comm().t_last, 1e-12);
  }
  EXPECT_NEAR(epoch.avg_batch_time,
              job.true_batch_time({30.0, 20.0, 10.0}), 1e-12);
  EXPECT_NEAR(epoch.total_time, 4 * epoch.avg_batch_time, 1e-12);
}

TEST(ClusterJob, NoisyObservationsCenterOnTruth) {
  NoiseConfig noise;
  ClusterJob job(cluster_b(), small_job(), noise, 3);
  std::vector<int> batches(static_cast<std::size_t>(job.size()), 16);

  double gamma_sum = 0.0;
  const int epochs = 200;
  for (int e = 0; e < epochs; ++e) {
    const auto obs = job.run_epoch(batches, 4);
    gamma_sum += obs.nodes[0].gamma;
  }
  // Log-normal noise has positive mean bias ~ exp(sigma^2/2); with the
  // configured sigmas this stays well inside 5%.
  EXPECT_NEAR(gamma_sum / epochs, job.gamma(), 0.05 * job.gamma());
}

TEST(ClusterJob, RunEpochValidatesArguments) {
  ClusterJob job(cluster_a(), small_job(), NoiseConfig::none(), 1);
  EXPECT_THROW(job.run_epoch({1, 2}, 4), std::invalid_argument);
  EXPECT_THROW(job.run_epoch({1, 2, 3}, 0), std::invalid_argument);
  EXPECT_THROW(job.true_batch_time({-1.0, 2.0, 3.0}), std::invalid_argument);
}

// FNV-1a over the exact bits of every field of an epoch's observations.
class EpochDigest {
 public:
  void add(const EpochObservation& epoch) {
    add_bits(epoch.total_time);
    add_bits(epoch.avg_batch_time);
    add_int(epoch.num_batches);
    add_int(static_cast<long long>(epoch.nodes.size()));
    for (const auto& node : epoch.nodes) {
      add_int(node.local_batch);
      add_bits(node.a);
      add_bits(node.p);
      add_bits(node.gamma);
      add_bits(node.t_other);
      add_bits(node.t_last);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void add_bits(double v) { add_word(std::bit_cast<std::uint64_t>(v)); }
  void add_int(long long v) { add_word(static_cast<std::uint64_t>(v)); }
  void add_word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Pins the simulator's seeded noise stream: every observed and true
// value of a few noisy epochs on clusters A/B/C, with and without
// gradient accumulation, on a 2-bucket and a 7-bucket job, over the
// clusters' own network and over a 100 Gbps one where compute and
// communication trade the critical path (so the middle buckets' ready
// times set batch times). Speedups of the simulator must leave this
// digest unchanged. Only a declared noise-stream change may re-baseline
// the constant. It was last re-baselined when the noise became
// counter-keyed (each draw a pure hash of seed, epoch, step,
// micro-step, node and draw kind, through the AS241 inverse normal
// CDF) in place of one mt19937_64 stream; the digest was captured from
// that code.
TEST(ClusterJob, SeededEpochStreamIsPinned) {
  JobProfile many_buckets = small_job();
  many_buckets.gradient_bytes = 170e6;
  EpochDigest digest;
  for (auto spec : {cluster_a(), cluster_b(), cluster_c()}) {
    for (double bandwidth : {spec.network.bandwidth_bytes_per_s, 12.5e9}) {
      spec.network.bandwidth_bytes_per_s = bandwidth;
      for (const auto& profile : {small_job(), many_buckets}) {
        for (int accumulation : {1, 3}) {
          ClusterJob job(spec, profile, NoiseConfig{}, 20240611);
          std::vector<int> batches;
          for (int i = 0; i < job.size(); ++i) {
            batches.push_back(i * 5 % 17 * 3);
          }
          for (int epoch = 0; epoch < 3; ++epoch) {
            digest.add(job.run_epoch(batches, 4 + epoch, accumulation));
          }
        }
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x1a9dbc261f059835ULL);
}

// An epoch's noise is keyed by its index, not by how many draws the
// epochs before it used: two jobs whose first epochs differ in length
// observe a bitwise-identical second epoch.
TEST(ClusterJob, EpochNoiseDoesNotDependOnEarlierEpochs) {
  ClusterJob short_first(cluster_b(), small_job(), NoiseConfig{}, 41);
  ClusterJob long_first(cluster_b(), small_job(), NoiseConfig{}, 41);
  const std::vector<int> batches(16, 24);
  short_first.run_epoch(batches, 3);
  long_first.run_epoch(batches, 7);
  EpochDigest short_digest, long_digest;
  short_digest.add(short_first.run_epoch(batches, 5, 2));
  long_digest.add(long_first.run_epoch(batches, 5, 2));
  EXPECT_EQ(short_digest.value(), long_digest.value());
}

// ---------------------------------------------------------------- factory

TEST(ClusterFactory, ClusterAMatchesTable3) {
  const auto spec = cluster_a();
  ASSERT_EQ(spec.size(), 3);
  EXPECT_EQ(spec.nodes[0].gpu, GpuModel::kA5000);
  EXPECT_EQ(spec.nodes[1].gpu, GpuModel::kA4000);
  EXPECT_EQ(spec.nodes[2].gpu, GpuModel::kP4000);
}

TEST(ClusterFactory, ClusterBMatchesTable4) {
  const auto spec = cluster_b();
  ASSERT_EQ(spec.size(), 16);
  int a100 = 0, v100 = 0, rtx = 0;
  for (const auto& node : spec.nodes) {
    a100 += node.gpu == GpuModel::kA100;
    v100 += node.gpu == GpuModel::kV100;
    rtx += node.gpu == GpuModel::kRtx6000;
  }
  EXPECT_EQ(a100, 4);
  EXPECT_EQ(v100, 4);
  EXPECT_EQ(rtx, 8);
}

TEST(ClusterFactory, ClusterCSharingContention) {
  const auto spec = cluster_c();
  ASSERT_EQ(spec.size(), 16);
  for (const auto& node : spec.nodes) {
    EXPECT_EQ(node.gpu, GpuModel::kRtx6000);
    EXPECT_GT(node.contention, 0.0);
    EXPECT_LE(node.contention, 1.0);
  }
  EXPECT_THROW(cluster_c({0.5, 1.5}), std::invalid_argument);
}

TEST(ClusterFactory, TwoSpeedClusterRatio) {
  const auto spec = two_speed_cluster(8, 4.0);
  ASSERT_EQ(spec.size(), 8);
  EXPECT_DOUBLE_EQ(spec.nodes[0].contention, 1.0);
  EXPECT_DOUBLE_EQ(spec.nodes[7].contention, 0.25);
  EXPECT_THROW(two_speed_cluster(1, 2.0), std::invalid_argument);
  EXPECT_THROW(two_speed_cluster(4, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace cannikin::sim
