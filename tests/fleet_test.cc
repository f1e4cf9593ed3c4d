// Fleet scheduler surface: Allocation value-type properties
// (diff/apply round trip, one-owner invariant), JobSpec/FleetSim input
// validation, policy behavior (FIFO queueing, goodput packing),
// checkpoint-safe preemption (zero bootstrap epochs, counted as
// preemption rather than fault), and seeded whole-run determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/temp_dir.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sched/allocation.h"
#include "sched/fault_recovery.h"
#include "sched/fleet.h"
#include "sched/policy.h"
#include "sched/supervisor.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::sched {
namespace {

// ------------------------------------------------------------ Allocation

TEST(Allocation, ConstructionAndAccessValidation) {
  EXPECT_THROW(Allocation(0), std::invalid_argument);
  EXPECT_THROW(Allocation(-3), std::invalid_argument);

  Allocation allocation(4);
  EXPECT_EQ(allocation.num_nodes(), 4);
  EXPECT_TRUE(allocation.empty());
  EXPECT_THROW(allocation.job_of(-1), std::invalid_argument);
  EXPECT_THROW(allocation.job_of(4), std::invalid_argument);
  EXPECT_THROW(allocation.assign(-1, {0}), std::invalid_argument);
  EXPECT_THROW(allocation.assign(0, {7}), std::invalid_argument);
}

TEST(Allocation, OneOwnerPerNodeIsEnforced) {
  Allocation allocation(4);
  allocation.assign(0, {0, 1});
  // Claiming node 1 for job 2 without releasing job 0 must throw.
  EXPECT_THROW(allocation.assign(2, {1, 2}), std::logic_error);
  // Re-assigning a job its own node is fine (grow in place).
  allocation.assign(0, {0, 1, 2});
  EXPECT_EQ(allocation.size_of(0), 3);
  allocation.release(0);
  allocation.assign(2, {1, 2});
  EXPECT_EQ(allocation.job_of(0), kNoJob);
  EXPECT_EQ(allocation.job_of(1), 2);
}

// Random allocation over `num_nodes` nodes and jobs 0..num_jobs-1.
Allocation random_allocation(Rng& rng, int num_nodes, int num_jobs) {
  Allocation allocation(num_nodes);
  std::map<JobId, std::vector<int>> nodes;
  for (int node = 0; node < num_nodes; ++node) {
    const JobId owner =
        static_cast<JobId>(rng.uniform_int(-1, num_jobs - 1));
    if (owner >= 0) nodes[owner].push_back(node);
  }
  for (const auto& [job, ids] : nodes) allocation.assign(job, ids);
  return allocation;
}

TEST(Allocation, DiffApplyRoundTripProperty) {
  Rng rng(2026);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const int num_nodes = static_cast<int>(rng.uniform_int(1, 12));
    const int num_jobs = static_cast<int>(rng.uniform_int(1, 5));
    const Allocation source = random_allocation(rng, num_nodes, num_jobs);
    const Allocation target = random_allocation(rng, num_nodes, num_jobs);

    const AllocationDelta delta = source.diff(target);
    Allocation applied = source;
    applied.apply(delta);
    ASSERT_EQ(applied, target)
        << "iteration " << iteration << ": " << source.to_string() << " -> "
        << target.to_string();
    // Jobs absent from the delta are exactly the unchanged ones.
    for (const auto& change : delta.changes) {
      ASSERT_NE(change.before, change.after);
      ASSERT_EQ(change.before, source.nodes_of(change.job));
      ASSERT_EQ(change.after, target.nodes_of(change.job));
    }
    // diff of equal allocations is empty; re-applying is a no-op.
    ASSERT_TRUE(applied.diff(target).empty());
  }
}

TEST(Allocation, ApplyRejectsStaleDelta) {
  Allocation source(4);
  source.assign(0, {0, 1});
  Allocation target(4);
  target.assign(0, {0, 1, 2, 3});
  const AllocationDelta delta = source.diff(target);

  Allocation drifted = source;
  drifted.release(0);
  drifted.assign(1, {0});
  EXPECT_THROW(drifted.apply(delta), std::logic_error);
}

TEST(Allocation, RandomOpsKeepBothDirectionsConsistent) {
  Rng rng(7);
  Allocation allocation(10);
  std::map<int, JobId> model;  // node -> owner
  for (int step = 0; step < 500; ++step) {
    const JobId job = static_cast<JobId>(rng.uniform_int(0, 4));
    if (rng.bernoulli(0.35)) {
      allocation.release(job);
      for (auto it = model.begin(); it != model.end();) {
        it = it->second == job ? model.erase(it) : std::next(it);
      }
    } else {
      std::vector<int> nodes;
      for (int node = 0; node < 10; ++node) {
        const auto owner = model.find(node);
        const bool mine = owner != model.end() && owner->second == job;
        const bool free = owner == model.end();
        if ((mine || free) && rng.bernoulli(0.3)) nodes.push_back(node);
      }
      allocation.assign(job, nodes);
      for (int node : nodes) model[node] = job;
    }
    // Forward and reverse mappings agree with the model.
    int owned = 0;
    for (int node = 0; node < 10; ++node) {
      const auto owner = model.find(node);
      ASSERT_EQ(allocation.job_of(node),
                owner == model.end() ? kNoJob : owner->second);
      if (owner != model.end()) ++owned;
    }
    int total = 0;
    for (JobId job_id : allocation.jobs()) {
      for (int node : allocation.nodes_of(job_id)) {
        ASSERT_EQ(allocation.job_of(node), job_id);
      }
      total += allocation.size_of(job_id);
    }
    ASSERT_EQ(total, owned);  // node sets are disjoint and complete
  }
}

// ----------------------------------------------------- packer properties

TEST(FleetPacker, MinNodesRespectedAndSubsetConfined) {
  GoodputScheduler scheduler(sim::cluster_b());
  const std::vector<SchedulerJobInfo> jobs{
      {&workloads::by_name("cifar10"), 500.0, 3},
      {&workloads::by_name("imagenet"), 1000.0, 2},
  };
  const std::vector<int> pool{2, 3, 5, 7, 11, 13};
  const Allocation allocation = scheduler.allocate_subset(jobs, pool);
  EXPECT_GE(allocation.size_of(0), 3);
  EXPECT_GE(allocation.size_of(1), 2);
  for (JobId job : allocation.jobs()) {
    for (int node : allocation.nodes_of(job)) {
      EXPECT_NE(std::find(pool.begin(), pool.end(), node), pool.end())
          << "node " << node << " outside the requested subset";
    }
  }
}

TEST(FleetPacker, Validation) {
  GoodputScheduler scheduler(sim::cluster_a());
  EXPECT_THROW(
      scheduler.allocate({{&workloads::by_name("cifar10"), 100.0, 0}}),
      std::invalid_argument);
  EXPECT_THROW(scheduler.allocate({{nullptr, 100.0, 1}}),
               std::invalid_argument);
  // min_nodes demand exceeding the pool is an error, not a silent drop.
  EXPECT_THROW(
      scheduler.allocate({{&workloads::by_name("cifar10"), 100.0, 5}}),
      std::invalid_argument);
  EXPECT_THROW(scheduler.allocate_subset(
                   {{&workloads::by_name("cifar10"), 100.0, 1}}, {99}),
               std::invalid_argument);
}

// ------------------------------------------------------------ validation

TEST(FleetValidation, JobSpecRejectsBadFields) {
  JobSpec spec;
  spec.workload = &workloads::by_name("cifar10");
  spec.validate();  // defaults are fine

  JobSpec null_workload = spec;
  null_workload.workload = nullptr;
  EXPECT_THROW(null_workload.validate(), std::invalid_argument);

  JobSpec bad_min = spec;
  bad_min.min_nodes = 0;
  EXPECT_THROW(bad_min.validate(), std::invalid_argument);

  JobSpec zero_target = spec;
  zero_target.target_fraction = 0.0;
  EXPECT_THROW(zero_target.validate(), std::invalid_argument);
  zero_target.target_fraction = 1.5;
  EXPECT_THROW(zero_target.validate(), std::invalid_argument);

  JobSpec bad_preferred = spec;
  bad_preferred.preferred_nodes = -2;
  EXPECT_THROW(bad_preferred.validate(), std::invalid_argument);

  JobSpec bad_deadline = spec;
  bad_deadline.deadline_hint_seconds = -1.0;
  EXPECT_THROW(bad_deadline.validate(), std::invalid_argument);
}

TEST(FleetValidation, FleetSimRejectsBadInputs) {
  EXPECT_THROW(FleetSim(sim::ClusterSpec{}, std::make_unique<FifoPolicy>()),
               std::invalid_argument);
  EXPECT_THROW(FleetSim(sim::cluster_a(), nullptr), std::invalid_argument);

  FleetOptions bad_epochs;
  bad_epochs.max_epochs_per_job = 0;
  EXPECT_THROW(
      FleetSim(sim::cluster_a(), std::make_unique<FifoPolicy>(), bad_epochs),
      std::invalid_argument);

  FleetSim fleet(sim::cluster_a(), std::make_unique<FifoPolicy>());
  EXPECT_THROW(fleet.run(), std::invalid_argument);  // no jobs

  JobSpec spec;
  spec.workload = &workloads::by_name("cifar10");
  EXPECT_THROW(fleet.submit(spec, -1.0), std::invalid_argument);
  JobSpec too_big = spec;
  too_big.min_nodes = 99;
  EXPECT_THROW(fleet.submit(too_big), std::invalid_argument);
  EXPECT_THROW(poisson_arrivals({spec}, 0.0, 1), std::invalid_argument);
}

TEST(FleetValidation, PolicyConstructorsReject) {
  EXPECT_THROW(FifoPolicy(0), std::invalid_argument);
  EXPECT_THROW(StaticPartitionPolicy(4, 0), std::invalid_argument);
  EXPECT_THROW(StaticPartitionPolicy(4, 5), std::invalid_argument);
}

// --------------------------------------------------------------- arrivals

TEST(FleetArrivals, PoissonTraceIsSeededAndOrdered) {
  std::vector<JobSpec> specs(5);
  for (auto& spec : specs) spec.workload = &workloads::by_name("cifar10");
  const auto a = poisson_arrivals(specs, 60.0, 99);
  const auto b = poisson_arrivals(specs, 60.0, 99);
  const auto c = poisson_arrivals(specs, 60.0, 100);
  ASSERT_EQ(a.size(), 5u);
  double prev = 0.0;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_GE(a[i].time, prev);
    prev = a[i].time;
    differs = differs || a[i].time != c[i].time;
  }
  EXPECT_TRUE(differs);  // different seed, different trace
}

// ------------------------------------------------------------------ FIFO

TEST(FleetFifo, QueuesBehindTheHeadAndNeverPreempts) {
  FleetOptions options;
  options.seed = 5;
  options.max_epochs_per_job = 400;

  FleetSim fleet(sim::cluster_a(), std::make_unique<FifoPolicy>(4), options);
  JobSpec spec;
  spec.workload = &workloads::by_name("cifar10");
  spec.target_fraction = 0.05;
  spec.preferred_nodes = 4;  // each job wants the whole cluster
  fleet.submit(spec, 0.0);
  fleet.submit(spec, 1.0);

  const FleetResult result = fleet.run();
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.completed_jobs, 2);
  EXPECT_EQ(result.preemptions, 0);
  // The second job had to wait for the first to free the cluster.
  EXPECT_GT(result.jobs[1].queueing_delay, 0.0);
  EXPECT_GE(result.jobs[1].start_time, result.jobs[0].finish_time);
  EXPECT_GT(result.fleet_goodput, 0.0);
  EXPECT_GT(result.mean_queueing_delay, 0.0);
}

// ---------------------------------------------------- goodput-greedy

TEST(FleetGoodputGreedy, PreemptsOnlyWhenTheHorizonGainPaysForTheRestore) {
  // A running job holds the whole cluster when a higher-priority job
  // arrives that needs all of it too. The policy evicts the running job
  // exactly when the fleet-goodput gain, credited over
  // kPreemptionHorizonSeconds, exceeds the running job's goodput times
  // the preemption cost; otherwise the running job keeps its nodes and
  // the arrival queues.
  const sim::ClusterSpec cluster = sim::cluster_a();
  const int n = cluster.size();
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    all[static_cast<std::size_t>(node)] = node;
  }
  JobSpec running_spec;
  running_spec.workload = &workloads::by_name("imagenet");
  running_spec.min_nodes = n;
  JobSpec arriving_spec = running_spec;
  arriving_spec.workload = &workloads::by_name("movielens");
  arriving_spec.priority = 1;

  Allocation current(n);
  current.assign(0, all);
  FleetState state;
  state.cluster = &cluster;
  state.current = &current;
  state.now = 10.0;
  FleetJobView running;
  running.id = 0;
  running.spec = &running_spec;
  running.progress = 0.3;
  running.started = true;
  running.epochs = 5;
  FleetJobView arriving;
  arriving.id = 1;
  arriving.spec = &arriving_spec;
  arriving.arrival_time = 10.0;
  state.jobs = {running, arriving};

  const GoodputScheduler scheduler(cluster);
  const double gp_running =
      scheduler.estimated_goodput({running_spec.workload, 0.0, n}, all);
  const double gp_arriving =
      scheduler.estimated_goodput({arriving_spec.workload, 0.0, n}, all);
  ASSERT_GT(gp_arriving, gp_running);
  EXPECT_DOUBLE_EQ(GoodputGreedyPolicy::kPreemptionHorizonSeconds, 600.0);
  const double break_even = (gp_arriving - gp_running) *
                            GoodputGreedyPolicy::kPreemptionHorizonSeconds /
                            gp_running;

  GoodputGreedyPolicy policy(cluster);
  state.preemption_cost_seconds = 0.9 * break_even;
  const Allocation preempted = policy.on_job_arrival(state, 1);
  EXPECT_EQ(preempted.nodes_of(1), all);
  EXPECT_TRUE(preempted.nodes_of(0).empty());

  state.preemption_cost_seconds = 1.1 * break_even;
  const Allocation kept = policy.on_job_arrival(state, 1);
  EXPECT_EQ(kept.nodes_of(0), all);
  EXPECT_TRUE(kept.nodes_of(1).empty());
}

// ----------------------------------------------- checkpoint-safe preempt

class FleetPreemption : public ::testing::Test {
 protected:
  TempDir temp_{"cannikin-fleet-test"};
  const std::string dir_ = temp_.str();
};

TEST_F(FleetPreemption, SupervisorResumeIsWarmAndCountsAsPreemption) {
  SupervisorOptions options;
  options.checkpoint_dir = dir_;
  options.checkpoint_every_epochs = 0;  // manual checkpoints only
  TrainingSupervisor supervisor(&workloads::by_name("cifar10"),
                                sim::cluster_b(), sim::NoiseConfig{}, 3,
                                options);
  supervisor.start({0, 4, 8});
  for (int epoch = 0; epoch < 4; ++epoch) supervisor.job().run_epoch();
  supervisor.checkpoint_now();
  const int checkpointed_epochs = supervisor.job().epochs_run();
  // Two more epochs that the preemption will roll back.
  supervisor.job().run_epoch();
  supervisor.job().run_epoch();

  supervisor.preempt();
  EXPECT_TRUE(supervisor.preempted());
  EXPECT_FALSE(supervisor.has_job());
  EXPECT_EQ(supervisor.stats().preemptions, 1);
  EXPECT_EQ(supervisor.stats().epochs_lost_to_preemption, 2);

  // Resume on *different* nodes of the same hardware types: a
  // migration. The banked models cover them, so the controller
  // warm-starts with zero bootstrap epochs.
  supervisor.resume({1, 5, 9});
  ASSERT_TRUE(supervisor.has_job());
  EXPECT_EQ(supervisor.job().epochs_run(), checkpointed_epochs);  // rollback
  EXPECT_EQ(supervisor.job().allocation(), (std::vector<int>{1, 5, 9}));
  ASSERT_EQ(supervisor.preemption_reports().size(), 1u);
  EXPECT_TRUE(supervisor.preemption_reports()[0].preemption);
  EXPECT_TRUE(supervisor.preemption_reports()[0].warm);  // no bootstrap
  EXPECT_GT(supervisor.stats().preemption_restore_seconds, 0.0);

  // Double-resume and preempt-without-job are rejected.
  EXPECT_THROW(supervisor.resume({0}), std::logic_error);

  // A fault run after the preemption reports it in the trace under the
  // preemption flag -- and recovery_metrics must NOT treat it as a
  // fault onset.
  sim::FaultInjector quiet;
  const FaultRecoveryTrace trace = supervisor.run(quiet, 3);
  EXPECT_EQ(trace.stats.preemptions, 1);
  EXPECT_EQ(trace.stats.epochs_lost_to_preemption, 2);
  int preemption_reports = 0;
  for (const auto& report : trace.recoveries) {
    preemption_reports += report.preemption ? 1 : 0;
  }
  EXPECT_EQ(preemption_reports, 1);
  EXPECT_TRUE(recovery_metrics(trace).empty());
}

// A deliberately adversarial policy: every arrival takes the whole
// cluster, evicting whoever holds it; every finish hands the cluster
// to the lowest unfinished job. Exercises FleetSim's preempt/resume
// machinery deterministically (and demonstrates that policies are a
// single-class extension point).
class EvictNewestWinsPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "evict-newest-wins"; }
  Allocation on_job_arrival(const FleetState& state, JobId arrived) override {
    Allocation target(state.cluster->size());
    std::vector<int> all(static_cast<std::size_t>(state.cluster->size()));
    for (int node = 0; node < state.cluster->size(); ++node) {
      all[static_cast<std::size_t>(node)] = node;
    }
    target.assign(arrived, all);
    return target;
  }
  Allocation on_job_finish(const FleetState& state, JobId) override {
    Allocation target(state.cluster->size());
    if (state.jobs.empty()) return target;
    std::vector<int> all(static_cast<std::size_t>(state.cluster->size()));
    for (int node = 0; node < state.cluster->size(); ++node) {
      all[static_cast<std::size_t>(node)] = node;
    }
    target.assign(state.jobs.front().id, all);
    return target;
  }
};

TEST_F(FleetPreemption, FleetPreemptsMidEpochAndResumesFromCheckpoint) {
  FleetOptions options;
  options.seed = 11;
  options.max_epochs_per_job = 400;
  options.checkpoint_every_epochs = 2;
  options.checkpoint_root = dir_;
  options.preemption_cost_seconds = 5.0;

  FleetSim fleet(sim::cluster_a(), std::make_unique<EvictNewestWinsPolicy>(),
                 options);
  JobSpec spec;
  spec.workload = &workloads::by_name("cifar10");
  spec.target_fraction = 0.04;
  // Job 0 starts at t=0 on the whole cluster; job 1 lands mid-epoch and
  // evicts it; job 0 resumes from its checkpoint when job 1 finishes.
  fleet.submit(spec, 0.0);
  fleet.submit(spec, 1.0);

  const FleetResult result = fleet.run();
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.completed_jobs, 2);
  EXPECT_EQ(result.preemptions, 1);
  EXPECT_EQ(result.jobs[0].preemptions, 1);
  EXPECT_EQ(result.jobs[1].preemptions, 0);
  // The modeled resume penalty was charged.
  EXPECT_DOUBLE_EQ(result.preemption_overhead_seconds, 5.0);
  // Job 0 was mid-epoch with only the epoch-0 checkpoint durable: the
  // aborted epoch never committed, so nothing counts as lost beyond
  // what the checkpoint missed.
  EXPECT_GE(result.epochs_lost_to_preemption, 0);
  EXPECT_GT(result.checkpoints_written, 2);
  // Preempted job still finished after resume -- later than the evictor.
  EXPECT_GT(result.jobs[0].finish_time, result.jobs[1].finish_time);
}

// ---------------------------------------------------------- determinism

std::vector<JobArrival> mixed_trace(int jobs, std::uint64_t seed) {
  const std::vector<const workloads::Workload*> catalog{
      &workloads::by_name("cifar10"), &workloads::by_name("movielens"),
      &workloads::by_name("imagenet")};
  std::vector<JobSpec> specs;
  Rng rng(seed);
  for (int i = 0; i < jobs; ++i) {
    JobSpec spec;
    spec.workload = catalog[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1))];
    spec.target_fraction = 0.02 + 0.02 * rng.uniform();
    spec.priority = static_cast<int>(rng.uniform_int(0, 2));
    spec.min_nodes = 1;
    specs.push_back(spec);
  }
  return poisson_arrivals(std::move(specs), 40.0, seed + 1);
}

// Metrics of two runs, `measured_*` wall clock excluded.
void expect_same_virtual_metrics(const FleetResult& lhs,
                                 const FleetResult& rhs) {
  const auto left = lhs.metrics();
  const auto right = rhs.metrics();
  ASSERT_EQ(left.size(), right.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    ASSERT_EQ(left[i].first, right[i].first);
    if (left[i].first.rfind("measured_", 0) == 0) continue;
    EXPECT_EQ(left[i].second, right[i].second) << left[i].first;
  }
}

FleetResult run_goodput_fleet(const std::vector<JobArrival>& trace,
                              const std::string& root) {
  FleetOptions options;
  options.seed = 17;
  options.max_epochs_per_job = 400;
  options.checkpoint_every_epochs = 3;
  options.checkpoint_root = root;
  options.rebalance_interval_seconds = 500.0;
  FleetSim fleet(sim::cluster_b(),
                 std::make_unique<GoodputGreedyPolicy>(sim::cluster_b()),
                 options);
  fleet.submit(trace);
  return fleet.run();
}

TEST_F(FleetPreemption, SameSeedSameTraceGivesIdenticalMetrics) {
  const auto trace = mixed_trace(8, 123);
  const FleetResult first = run_goodput_fleet(trace, dir_ + "/a");
  const FleetResult second = run_goodput_fleet(trace, dir_ + "/b");

  expect_same_virtual_metrics(first, second);
  EXPECT_EQ(first.completed_jobs, static_cast<int>(trace.size()));
  // Virtual-time metrics are pure functions of (trace, policy, seed).
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.jobs[i].completion_seconds,
                     second.jobs[i].completion_seconds);
    EXPECT_EQ(first.jobs[i].epochs, second.jobs[i].epochs);
    EXPECT_EQ(first.jobs[i].preemptions, second.jobs[i].preemptions);
  }
}

// -------------------------------------------------- hermetic temp roots

TEST(FleetHermetic, ConcurrentSameSeedRunsGetPrivateRootsAndAgree) {
  const auto trace = mixed_trace(6, 321);
  struct Run {
    std::string root;
    FleetResult result;
    bool root_removed = false;
    std::string error;
  };
  Run runs[2];
  const auto body = [&trace](Run* run) {
    try {
      {
        FleetOptions options;
        options.seed = 17;
        options.max_epochs_per_job = 400;
        options.checkpoint_every_epochs = 3;  // no checkpoint_root
        FleetSim fleet(sim::cluster_b(),
                       std::make_unique<GoodputGreedyPolicy>(sim::cluster_b()),
                       options);
        run->root = fleet.checkpoint_root();
        fleet.submit(trace);
        run->result = fleet.run();
      }
      run->root_removed = !std::filesystem::exists(run->root);
    } catch (const std::exception& e) {
      run->error = e.what();
    }
  };
  std::thread first(body, &runs[0]);
  std::thread second(body, &runs[1]);
  first.join();
  second.join();

  ASSERT_EQ(runs[0].error, "");
  ASSERT_EQ(runs[1].error, "");
  EXPECT_NE(runs[0].root, runs[1].root);
  EXPECT_TRUE(runs[0].root_removed) << runs[0].root;
  EXPECT_TRUE(runs[1].root_removed) << runs[1].root;
  EXPECT_EQ(runs[0].result.completed_jobs, static_cast<int>(trace.size()));
  EXPECT_GT(runs[0].result.checkpoints_written, 0);
  expect_same_virtual_metrics(runs[0].result, runs[1].result);
}

// ---------------------------------------------------------- fleet metrics

/// Forwards to GoodputGreedyPolicy and counts the decisions.
class CountingPolicy : public SchedulingPolicy {
 public:
  CountingPolicy(const sim::ClusterSpec& cluster, int* calls)
      : inner_(cluster), calls_(calls) {}
  std::string name() const override { return inner_.name(); }
  Allocation on_job_arrival(const FleetState& state, JobId arrived) override {
    ++*calls_;
    return inner_.on_job_arrival(state, arrived);
  }
  Allocation on_job_finish(const FleetState& state, JobId finished) override {
    ++*calls_;
    return inner_.on_job_finish(state, finished);
  }
  Allocation on_rebalance_tick(const FleetState& state) override {
    ++*calls_;
    return inner_.on_rebalance_tick(state);
  }

 private:
  GoodputGreedyPolicy inner_;
  int* calls_;
};

TEST_F(FleetPreemption, ObsScopeRecordsFleetMetricsWithoutChangingTheRun) {
  const auto trace = mixed_trace(8, 123);
  obs::MetricsRegistry registry;
  int calls = 0;
  FleetOptions options;
  options.seed = 17;
  options.max_epochs_per_job = 400;
  options.checkpoint_every_epochs = 3;
  options.checkpoint_root = dir_ + "/observed";
  options.rebalance_interval_seconds = 500.0;
  options.obs = obs::Scope(nullptr, &registry);
  FleetSim fleet(sim::cluster_b(),
                 std::make_unique<CountingPolicy>(sim::cluster_b(), &calls),
                 options);
  fleet.submit(trace);
  const FleetResult observed = fleet.run();

  EXPECT_GT(calls, 0);
  EXPECT_EQ(registry.histogram("fleet.policy_decision_us").count,
            static_cast<std::size_t>(calls));
  EXPECT_EQ(registry.counter("fleet.preemptions"),
            static_cast<double>(observed.preemptions));
  EXPECT_GT(observed.checkpoints_written, 0);
  EXPECT_GT(registry.counter("fleet.checkpoint_bytes"), 0.0);
  const auto names = registry.names();
  EXPECT_NE(std::find(names.begin(), names.end(),
                      std::make_pair(std::string("fleet.queue_length"),
                                     std::string("gauge"))),
            names.end());
  // A count of waiting jobs: within [0, trace size].
  EXPECT_GE(registry.gauge("fleet.queue_length"), 0.0);
  EXPECT_LE(registry.gauge("fleet.queue_length"),
            static_cast<double>(trace.size()));

  expect_same_virtual_metrics(observed,
                              run_goodput_fleet(trace, dir_ + "/plain"));
}

}  // namespace
}  // namespace cannikin::sched
