// fleet_trace: sched::FleetSim with GoodputGreedyPolicy on cluster B.
// One op is one FleetSim::run of a 20-job Poisson trace, one of 10
// drawn from the seed, with disc_fleet's job mix at eight times its
// targets and no periodic checkpoints, so that policy decisions and
// simulated training set the op's time, and the fsync'd epoch-0
// checkpoint of each job, whose latency follows other tenants' disk
// use, is about a tenth of it. Each op gets its own mkdtemp checkpoint
// root under the work directory, removed outside the timed region, so
// concurrent runs never share checkpoint files.
#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "sched/fleet.h"
#include "sched/policy.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

using namespace cannikin;

constexpr int kJobs = 20;
constexpr double kMeanInterarrivalSeconds = 130.0;
constexpr long kTraces = 10;  // distinct traces per run; op k runs k mod 10

/// disc_fleet's tenant mix: short fine-tunes of three workloads with
/// three priority classes, node minima and rigid-size requests.
std::vector<sched::JobSpec> make_specs() {
  const std::vector<const workloads::Workload*> mix{
      &workloads::by_name("cifar10"),
      &workloads::by_name("movielens"),
      &workloads::by_name("imagenet"),
  };
  std::vector<sched::JobSpec> specs;
  for (int i = 0; i < kJobs; ++i) {
    sched::JobSpec spec;
    spec.workload = mix[static_cast<std::size_t>(i) % mix.size()];
    spec.name = spec.workload->name + "-" + std::to_string(i);
    spec.priority = i % 3;
    spec.target_fraction = 0.16 + 0.08 * (i % 4);
    spec.min_nodes = 1 + (i % 2);
    spec.preferred_nodes = 2 + (i % 3);
    specs.push_back(spec);
  }
  return specs;
}

/// Forwards to a policy and times every decision from outside.
class TimedPolicy : public sched::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<sched::SchedulingPolicy> inner,
              const Spans& spans, std::vector<double>* decision_seconds)
      : inner_(std::move(inner)), spans_(spans), seconds_(decision_seconds) {}

  std::string name() const override { return inner_->name(); }
  sched::Allocation on_job_arrival(const sched::FleetState& state,
                                   sched::JobId arrived) override {
    return time("on_job_arrival",
                [&] { return inner_->on_job_arrival(state, arrived); });
  }
  sched::Allocation on_job_finish(const sched::FleetState& state,
                                  sched::JobId finished) override {
    return time("on_job_finish",
                [&] { return inner_->on_job_finish(state, finished); });
  }
  sched::Allocation on_rebalance_tick(
      const sched::FleetState& state) override {
    return time("on_rebalance_tick",
                [&] { return inner_->on_rebalance_tick(state); });
  }

 private:
  template <typename F>
  sched::Allocation time(const char* name, F&& fn) {
    double seconds = 0.0;
    auto out = timed(spans_, "sched.policy", name, &seconds, fn);
    seconds_->push_back(seconds);
    return out;
  }

  std::unique_ptr<sched::SchedulingPolicy> inner_;
  const Spans& spans_;
  std::vector<double>* seconds_;
};

class FleetTrace final : public Workload {
 public:
  FleetTrace(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed),
        cluster_(sim::cluster_b()),
        specs_(make_specs()),
        tmp_root_(std::filesystem::path(work_dir) / "tmp") {
    std::filesystem::create_directories(tmp_root_);
    // Warm-up: one trace off the op sequence.
    prepare(-1);
    run(-1);
    bool failed = false;
    finish(-1, &failed);
    stats_.clear();
  }

  ~FleetTrace() override { abandon(0); }

  void prepare(long k) override {
    std::string pattern = (tmp_root_ / "fleet-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("fleet_trace: mkdtemp failed in " +
                               tmp_root_.string());
    }
    root_ = pattern;
    const auto trace = static_cast<std::uint64_t>(k < 0 ? k : k % kTraces);
    sched::FleetOptions options;
    options.seed = mix(seed_, trace * 2 + 1);
    options.checkpoint_every_epochs = 0;  // only each job's epoch-0 checkpoint
    options.rebalance_interval_seconds = 400.0;
    options.preemption_cost_seconds = 30.0;
    options.checkpoint_root = root_;
    decisions_.clear();
    fleet_ = std::make_unique<sched::FleetSim>(
        cluster_,
        std::make_unique<TimedPolicy>(
            std::make_unique<sched::GoodputGreedyPolicy>(cluster_), spans_,
            &decisions_),
        options);
    fleet_->submit(sched::poisson_arrivals(
        specs_, kMeanInterarrivalSeconds, mix(seed_, trace * 2)));
  }

  void run(long) override {
    double seconds = 0.0;
    result_ = timed(spans_, "sched", "FleetSim::run", &seconds,
                    [&] { return fleet_->run(); });
    run_seconds_ = seconds;
  }

  std::uint64_t finish(long, bool* failed) override {
    int unfinished = 0;
    for (const auto& job : result_.jobs) unfinished += !job.completed;
    *failed = unfinished != 0;
    checker_.require(static_cast<int>(result_.jobs.size()) == kJobs &&
                         unfinished == 0 && result_.completed_jobs == kJobs,
                     "a job was retired unfinished");
    Digest digest;
    for (const auto& [name, value] : result_.metrics()) {
      if (name.rfind("measured_", 0) == 0) continue;
      digest.add(name);
      digest.add(value);
    }
    samples_ = 0.0;
    for (const auto& job : result_.jobs) samples_ += job.effective_samples;

    double policy_seconds = 0.0;
    for (double s : decisions_) {
      stats_.sample("sched.policy_us", s * 1e6);
      policy_seconds += s;
    }
    const double write = result_.measured_checkpoint_write_seconds;
    stats_.count("sched.policy_calls", static_cast<double>(decisions_.size()));
    stats_.count("sched.checkpoint_write_s", write);
    stats_.count("sched.self_s", run_seconds_ - policy_seconds - write);
    stats_.count("sched.checkpoints_written", result_.checkpoints_written);
    stats_.count("sched.preemptions", result_.preemptions);
    int epochs = 0;
    for (const auto& job : result_.jobs) epochs += job.epochs;
    stats_.count("sched.epochs", epochs);

    fleet_.reset();
    remove_root();
    return digest.value();
  }

  void abandon(long) override {
    fleet_.reset();
    remove_root();
  }

  double samples(long) const override { return samples_; }
  long input_classes() const override { return kTraces; }

  void corrupt() override { result_.jobs.at(kJobs / 2).completed = false; }

  LayerMetrics layer_metrics(const LayerStats& s, double ops) const override {
    const double written = s.total("sched.checkpoints_written");
    return {
        {"sched.policy_us.p50", percentile(s.samples("sched.policy_us"), 0.5)},
        {"sched.policy_us.p90", percentile(s.samples("sched.policy_us"), 0.9)},
        {"sched.policy_calls", s.total("sched.policy_calls") / ops},
        {"sched.checkpoint_write_ms",
         written > 0 ? s.total("sched.checkpoint_write_s") / written * 1e3
                     : 0.0},
        {"sched.self_ms", s.total("sched.self_s") / ops * 1e3},
        {"sched.checkpoints_written", written / ops},
        {"sched.preemptions", s.total("sched.preemptions") / ops},
        {"sched.epochs", s.total("sched.epochs") / ops},
    };
  }

 private:
  void remove_root() {
    if (root_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    root_.clear();
  }

  std::uint64_t seed_;
  sim::ClusterSpec cluster_;
  std::vector<sched::JobSpec> specs_;
  std::filesystem::path tmp_root_;

  std::string root_;
  std::vector<double> decisions_;
  std::unique_ptr<sched::FleetSim> fleet_;
  sched::FleetResult result_;
  double run_seconds_ = 0.0;
  double samples_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_trace(std::uint64_t seed,
                                           const std::string& work_dir) {
  return std::make_unique<FleetTrace>(seed, work_dir);
}

}  // namespace perfbench
