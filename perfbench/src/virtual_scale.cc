// virtual_scale: Cannikin at thousands of virtual ranks. One op is one
// adaptive epoch on a two-speed cluster -- plan_epoch, the simulated
// ClusterJob::run_epoch, observe_epoch -- followed by that epoch's
// bucketed tree all-reduce on EventBackend in pure virtual mode (post +
// run_until_idle on this thread, no rank threads).
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "comm/collectives.h"
#include "comm/event_backend.h"
#include "comm/process_group.h"
#include "experiments/cannikin_system.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

using namespace cannikin;

constexpr int kRanks = 1024;
constexpr int kBuckets = 4;
constexpr std::size_t kBucketElements = 64;
constexpr int kSimulatedBatches = 4;
// GNS trajectory period in ops: the goodput choice sees a moving GNS.
constexpr long kGnsPeriod = 20;
constexpr int kWarmupEpochs = 10;
constexpr double kSpeedRatio = 2.0;

/// The seed decides which ranks are fast and which slow (and, below,
/// the payloads). The simulator runs noise-free: with measurement noise
/// the learned models make some seeds' plans cost ~1000 linear solves
/// (OptPerf's active-set loop) and others 5, so a run's cost would
/// follow its seed instead of the code.
sim::ClusterSpec shuffled_cluster(std::uint64_t seed) {
  sim::ClusterSpec spec = sim::two_speed_cluster(kRanks, kSpeedRatio);
  for (std::size_t i = spec.nodes.size() - 1; i > 0; --i) {
    std::swap(spec.nodes[i], spec.nodes[mix(seed, 23 + i) % (i + 1)]);
  }
  return spec;
}

class VirtualScale final : public Workload {
 public:
  explicit VirtualScale(std::uint64_t seed)
      : seed_(seed),
        workload_(workloads::by_name("cifar10")),
        job_(shuffled_cluster(seed), workload_.profile,
             sim::NoiseConfig::none(), mix(seed, 22)) {
    std::vector<double> caps;
    for (int i = 0; i < kRanks; ++i) caps.push_back(job_.max_local_batch(i));
    system_ = std::make_unique<experiments::CannikinSystem>(
        kRanks, caps, workload_.b0, workload_.max_total_batch);
    // Warm-up: the two bootstrap epochs, after which plans come from
    // the learned models, and the first model-driven epochs, which
    // build the planner's caches.
    for (int epoch = 0; epoch < kWarmupEpochs; ++epoch) {
      system_->observe_gns(workload_.gns_at(0.0));
      const auto plan = system_->plan_epoch();
      system_->observe_epoch(job_.run_epoch(
          plan.local_batches, kSimulatedBatches, plan.accumulation_steps));
    }
    fabric_ = sim::FabricModel::from_network(job_.cluster().network);
  }

  void prepare(long k) override {
    comm::GroupOptions options;
    options.size = kRanks;
    options.backend = comm::BackendKind::kEvent;
    options.fabric = fabric_;
    group_ = std::make_unique<comm::ProcessGroup>(options);
    // Small integers: every partial sum is exact in double, so each
    // rank must end with exactly the serial sum.
    data_.assign(static_cast<std::size_t>(kRanks) * kBuckets,
                 std::vector<double>(kBucketElements));
    expected_.assign(static_cast<std::size_t>(kBuckets) * kBucketElements,
                     0.0);
    for (int rank = 0; rank < kRanks; ++rank) {
      for (int b = 0; b < kBuckets; ++b) {
        auto& bucket = data_[slot(rank, b)];
        for (std::size_t e = 0; e < kBucketElements; ++e) {
          bucket[e] = static_cast<double>(
              mix(seed_ ^ static_cast<std::uint64_t>(k),
                  (static_cast<std::uint64_t>(rank) * kBuckets + b) *
                          kBucketElements + e) % 16);
          expected_[static_cast<std::size_t>(b) * kBucketElements + e] +=
              bucket[e];
        }
      }
    }
    progress_ = static_cast<double>(k % kGnsPeriod) / kGnsPeriod;
  }

  void run(long) override {
    double seconds = 0.0;
    system_->observe_gns(workload_.gns_at(progress_));
    plan_ = timed(spans_, "core", "plan_epoch", &seconds,
                  [&] { return system_->plan_epoch(); });
    plan_us_ = seconds * 1e6;
    obs_ = timed(spans_, "sim", "run_epoch", &seconds, [&] {
      return job_.run_epoch(plan_.local_batches, kSimulatedBatches,
                            plan_.accumulation_steps);
    });
    run_epoch_us_ = seconds * 1e6;
    timed(spans_, "core", "observe_epoch", &seconds,
          [&] { system_->observe_epoch(obs_); });
    observe_us_ = seconds * 1e6;

    round_ = timed(spans_, "comm.event", "all_reduce_round", &seconds, [&] {
      comm::EventBackend* backend = group_->event_backend();
      for (int rank = 0; rank < kRanks; ++rank) {
        // Each rank joins when its own compute for the batch is done.
        const auto& node = obs_.nodes[static_cast<std::size_t>(rank)];
        backend->post(rank, node.a + node.p, [this, rank] {
          for (int b = 0; b < kBuckets; ++b) {
            comm::async_tree_all_reduce(group_->communicator(rank),
                                        data_[slot(rank, b)],
                                        static_cast<std::uint64_t>(b + 1));
          }
        });
      }
      return backend->run_until_idle();
    });
    round_seconds_ = seconds;
  }

  std::uint64_t finish(long, bool* failed) override {
    *failed = round_.works_stranded != 0;
    checker_.require(round_.works_stranded == 0, "stranded works");
    long exact = 0;
    for (int rank = 0; rank < kRanks; ++rank) {
      for (int b = 0; b < kBuckets; ++b) {
        const auto& bucket = data_[slot(rank, b)];
        for (std::size_t e = 0; e < kBucketElements; ++e) {
          exact += bucket[e] ==
                   expected_[static_cast<std::size_t>(b) * kBucketElements + e];
        }
      }
    }
    checker_.require(exact == static_cast<long>(kRanks) * kBuckets *
                                  static_cast<long>(kBucketElements),
                     "a rank does not hold the exact serial sum");
    long sum = 0;
    bool within_caps = true;
    for (int i = 0; i < kRanks; ++i) {
      const int b = plan_.local_batches[static_cast<std::size_t>(i)];
      sum += b;
      within_caps = within_caps && b >= 0 && b <= job_.max_local_batch(i);
    }
    checker_.require(within_caps, "local batch outside [0, cap]");
    checker_.require(sum * plan_.accumulation_steps == plan_.total_batch,
                     "plan does not sum to the total batch");

    Digest digest;
    digest.add(static_cast<std::uint64_t>(round_.events_processed));
    digest.add(round_.virtual_time);
    digest.add(plan_.total_batch);
    digest.add(plan_.accumulation_steps);
    digest.add(plan_.linear_solves);
    digest.add(obs_.avg_batch_time);
    for (int b : plan_.local_batches) digest.add(b);

    samples_ = static_cast<double>(plan_.total_batch) * kSimulatedBatches;
    auto& s = stats_;
    s.sample("core.plan_us", plan_us_);
    s.sample("core.observe_us", observe_us_);
    s.count("core.linear_solves", plan_.linear_solves);
    s.sample("sim.run_epoch_us", run_epoch_us_);
    s.sample("comm.event.round_ms", round_seconds_ * 1e3);
    s.count("comm.event.events",
            static_cast<double>(round_.events_processed));
    s.count("comm.event.seconds", round_seconds_);
    group_.reset();
    return digest.value();
  }

  double samples(long) const override { return samples_; }
  long input_classes() const override { return kGnsPeriod; }

  void corrupt() override { data_[slot(kRanks / 2, 1)][3] += 1.0; }

  LayerMetrics layer_metrics(const LayerStats& s, double ops) const override {
    const double events = s.total("comm.event.events");
    const double seconds = s.total("comm.event.seconds");
    return {
        {"core.plan_us.p50", percentile(s.samples("core.plan_us"), 0.5)},
        {"core.plan_us.p90", percentile(s.samples("core.plan_us"), 0.9)},
        {"core.observe_us.p50", percentile(s.samples("core.observe_us"), 0.5)},
        {"core.linear_solves", s.total("core.linear_solves") / ops},
        {"sim.run_epoch_us.p50", percentile(s.samples("sim.run_epoch_us"), 0.5)},
        {"comm.event.round_ms.p50",
         percentile(s.samples("comm.event.round_ms"), 0.5)},
        {"comm.event.round_ms.p90",
         percentile(s.samples("comm.event.round_ms"), 0.9)},
        {"comm.event.events", events / ops},
        {"comm.event.events_per_s", seconds > 0.0 ? events / seconds : 0.0},
    };
  }

 private:
  static std::size_t slot(int rank, int bucket) {
    return static_cast<std::size_t>(rank) * kBuckets +
           static_cast<std::size_t>(bucket);
  }

  std::uint64_t seed_;
  const workloads::Workload& workload_;
  sim::ClusterJob job_;
  std::unique_ptr<experiments::CannikinSystem> system_;
  sim::FabricModel fabric_;

  std::unique_ptr<comm::ProcessGroup> group_;
  std::vector<std::vector<double>> data_;
  std::vector<double> expected_;
  double progress_ = 0.0;
  experiments::SystemPlan plan_;
  sim::EpochObservation obs_;
  comm::EventStats round_;
  double plan_us_ = 0.0, run_epoch_us_ = 0.0, observe_us_ = 0.0;
  double round_seconds_ = 0.0;
  double samples_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_virtual_scale(std::uint64_t seed) {
  return std::make_unique<VirtualScale>(seed);
}

}  // namespace perfbench
