// sim_sweep: the paper's main path (Figs 8 and 10, Table 6). One op is
// one experiments::run_to_target cell; consecutive ops walk the grid
// {5 policies} x {5 Table 5 workloads} x {clusters A, B, C} twice, with a
// simulator seed per cell drawn from the run seed, and then repeat.
#include <memory>
#include <string>
#include <vector>

#include "baselines/adaptdl.h"
#include "baselines/ddp.h"
#include "baselines/hetpipe.h"
#include "baselines/lbbsp.h"
#include "bench.h"
#include "experiments/cannikin_system.h"
#include "experiments/harness.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

using namespace cannikin;

enum class Policy { kCannikin, kAdaptDl, kLbBsp, kDdp, kHetPipe };
constexpr Policy kPolicies[] = {Policy::kCannikin, Policy::kAdaptDl,
                                Policy::kLbBsp, Policy::kDdp,
                                Policy::kHetPipe};
constexpr int kNumPolicies = 5;
// The 75-cell grid twice, with two simulator seeds per cell.
constexpr long kClasses = 2 * kNumPolicies * 5 * 3;

/// Forwards to a policy and times its plan/observe calls from outside.
class TimedSystem : public experiments::TrainingSystem {
 public:
  TimedSystem(std::unique_ptr<experiments::TrainingSystem> inner,
              const Spans& spans, bool is_cannikin)
      : inner_(std::move(inner)),
        spans_(spans),
        layer_(is_cannikin ? "core" : "baselines") {}

  std::string name() const override { return inner_->name(); }

  experiments::SystemPlan plan_epoch() override {
    double seconds = 0.0;
    auto plan = timed(spans_, layer_, "plan_epoch", &seconds,
                      [&] { return inner_->plan_epoch(); });
    policy_seconds += seconds;
    plan_seconds.push_back(seconds);
    accumulation_steps.push_back(plan.accumulation_steps);
    return plan;
  }
  void observe_epoch(const sim::EpochObservation& obs) override {
    double seconds = 0.0;
    timed(spans_, layer_, "observe_epoch", &seconds,
          [&] { inner_->observe_epoch(obs); });
    policy_seconds += seconds;
    observe_seconds.push_back(seconds);
  }
  void observe_gns(double gns) override {
    const auto start = Clock::now();
    inner_->observe_gns(gns);
    policy_seconds += seconds_since(start);
  }

  double policy_seconds = 0.0;
  std::vector<double> plan_seconds;
  std::vector<double> observe_seconds;
  std::vector<int> accumulation_steps;

 private:
  std::unique_ptr<experiments::TrainingSystem> inner_;
  const Spans& spans_;
  const char* layer_;
};

std::unique_ptr<experiments::TrainingSystem> make_policy(
    Policy policy, const sim::ClusterJob& job,
    const workloads::Workload& workload) {
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  switch (policy) {
    case Policy::kCannikin:
      return std::make_unique<experiments::CannikinSystem>(
          job.size(), caps, workload.b0, workload.max_total_batch);
    case Policy::kAdaptDl:
      return std::make_unique<baselines::AdaptDlSystem>(
          job.size(), workload.b0, workload.max_total_batch, caps);
    case Policy::kLbBsp:
      return std::make_unique<baselines::LbBspSystem>(job.size(), workload.b0,
                                                      caps);
    case Policy::kDdp:
      return std::make_unique<baselines::DdpSystem>(job.size(), workload.b0,
                                                    caps);
    case Policy::kHetPipe:
      return std::make_unique<baselines::HetPipeSystem>(&job, workload.b0);
  }
  throw std::logic_error("unknown policy");
}

class SimSweep final : public Workload {
 public:
  explicit SimSweep(std::uint64_t seed)
      : seed_(seed),
        clusters_{sim::cluster_a(), sim::cluster_b(), sim::cluster_c()} {
    // The harness charges measured planning wall clock into
    // total_seconds unless this is 0; the output must not read a clock.
    options_.overhead_scale = 0.0;
    options_.max_epochs = 1000;
    // Warm-up: one cell per policy, off the op sequence.
    for (int p = 0; p < kNumPolicies; ++p) {
      prepare(-1 - p);
      run(-1 - p);
    }
  }

  void prepare(long k) override {
    // Warm-up cells (k < 0) lie off the op sequence's classes.
    const long cell = k < 0 ? -1 - k : k % kClasses;
    const auto& registry = workloads::registry();
    policy_ = kPolicies[cell % kNumPolicies];
    workload_ = &registry[static_cast<std::size_t>(
        (cell / kNumPolicies) % static_cast<long>(registry.size()))];
    const auto& cluster = clusters_[static_cast<std::size_t>(
        (cell / (kNumPolicies * static_cast<long>(registry.size()))) % 3)];
    job_ = std::make_unique<sim::ClusterJob>(
        cluster, workload_->profile, sim::NoiseConfig{},
        mix(seed_, static_cast<std::uint64_t>(k < 0 ? k : cell)));
    system_ = std::make_unique<TimedSystem>(
        make_policy(policy_, *job_, *workload_), spans_,
        policy_ == Policy::kCannikin);
  }

  void run(long) override {
    double seconds = 0.0;
    trace_ = timed(spans_, "sim", "run_to_target", &seconds, [&] {
      return experiments::run_to_target(*job_, *workload_, *system_, options_);
    });
    cell_seconds_ = seconds;
  }

  std::uint64_t finish(long, bool* failed) override {
    const bool cannikin = policy_ == Policy::kCannikin;
    *failed = !trace_.reached_target;
    checker_.require(trace_.reached_target,
                     trace_.system + " on " + workload_->name +
                         " missed its target");
    checker_.require(!trace_.epochs.empty() &&
                         std::isfinite(trace_.total_seconds) &&
                         trace_.total_seconds > 0.0,
                     "cell has no epochs or a non-finite time");
    Digest digest;
    digest.add(trace_.system);
    digest.add(trace_.workload);
    digest.add(job_->cluster().name);
    digest.add(static_cast<std::uint64_t>(trace_.epochs.size()));
    digest.add(trace_.total_seconds);
    digest.add(static_cast<std::int64_t>(trace_.linear_solves));
    for (std::size_t e = 0; e < trace_.epochs.size(); ++e) {
      const auto& row = trace_.epochs[e];
      digest.add(row.total_batch);
      digest.add(row.avg_batch_time);
      if (row.local_batches.empty()) continue;  // model-parallel plan
      long sum = 0;
      for (std::size_t i = 0; i < row.local_batches.size(); ++i) {
        const int b = row.local_batches[i];
        digest.add(b);
        sum += b;
        checker_.require(
            b >= 0 && b <= job_->max_local_batch(static_cast<int>(i)),
            trace_.system + ": local batch outside [0, cap]");
      }
      // Only Cannikin promises an exact split: AdaptDL's capped
      // even_split can fall short of its total batch.
      if (cannikin) {
        checker_.require(
            e < system_->accumulation_steps.size() &&
                sum * system_->accumulation_steps[e] == row.total_batch,
            "cannikin: sum(local) x accumulation != total_batch");
      }
    }
    samples_ = static_cast<double>(trace_.epochs.size()) *
               static_cast<double>(workload_->dataset_size);

    auto& stats = stats_;
    const double epochs = static_cast<double>(trace_.epochs.size());
    const char* plan = cannikin ? "core.plan_us" : "baselines.plan_us";
    for (std::size_t e = 0; e < system_->plan_seconds.size(); ++e) {
      double us = system_->plan_seconds[e] * 1e6;
      if (!cannikin && e < system_->observe_seconds.size()) {
        us += system_->observe_seconds[e] * 1e6;
      }
      stats.sample(plan, us);
    }
    if (cannikin) {
      for (double s : system_->observe_seconds) {
        stats.sample("core.observe_us", s * 1e6);
      }
      stats.count("core.linear_solves",
                  static_cast<double>(trace_.linear_solves));
    }
    if (epochs > 0) {
      stats.sample("sim.harness_epoch_us",
                   (cell_seconds_ - system_->policy_seconds) / epochs * 1e6);
    }
    stats.count("sim.epochs_simulated", epochs);
    return digest.value();
  }

  double samples(long) const override { return samples_; }
  long input_classes() const override { return kClasses; }

  void corrupt() override {
    // One local batch of the last cell's first data-parallel epoch.
    for (auto& row : trace_.epochs) {
      if (!row.local_batches.empty()) {
        row.local_batches[0] = job_->max_local_batch(0) + 1;
        return;
      }
    }
  }

  LayerMetrics layer_metrics(const LayerStats& stats,
                             double ops) const override {
    return {
        {"core.plan_us.p50", percentile(stats.samples("core.plan_us"), 0.5)},
        {"core.plan_us.p90", percentile(stats.samples("core.plan_us"), 0.9)},
        {"core.observe_us.p50",
         percentile(stats.samples("core.observe_us"), 0.5)},
        {"core.linear_solves", stats.total("core.linear_solves") / ops},
        {"baselines.plan_us.p50",
         percentile(stats.samples("baselines.plan_us"), 0.5)},
        {"sim.harness_epoch_us.p50",
         percentile(stats.samples("sim.harness_epoch_us"), 0.5)},
        {"sim.epochs_simulated", stats.total("sim.epochs_simulated") / ops},
    };
  }

 private:
  std::uint64_t seed_;
  std::vector<sim::ClusterSpec> clusters_;
  experiments::HarnessOptions options_;

  Policy policy_ = Policy::kCannikin;
  const workloads::Workload* workload_ = nullptr;
  std::unique_ptr<sim::ClusterJob> job_;
  std::unique_ptr<TimedSystem> system_;
  experiments::RunTrace trace_;
  double cell_seconds_ = 0.0;
  double samples_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_sweep(std::uint64_t seed) {
  return std::make_unique<SimSweep>(seed);
}

}  // namespace perfbench
