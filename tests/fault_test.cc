// Fault-tolerance tests: comm timeouts and abort (the NCCL-watchdog
// protocol of the in-process process group), the deterministic
// FaultInjector, and failure-driven elastic recovery. The headline
// property: a rank that dies mid-collective converts a would-be
// deadlock into an attributable error on every surviving rank within
// the configured deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "comm/bucket.h"
#include "comm/collectives.h"
#include "comm/process_group.h"
#include "common/temp_dir.h"
#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/parallel_trainer.h"
#include "experiments/harness.h"
#include "sched/elastic_job.h"
#include "sched/fault_recovery.h"
#include "sched/supervisor.h"
#include "sim/cluster_factory.h"
#include "sim/faults.h"
#include "workloads/registry.h"

namespace cannikin {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------ comm timeouts / abort

TEST(CommFault, DeadRankMidAllReduceTimesOutEveryPeer) {
  // The acceptance property: rank 2 of 4 exits before the collective;
  // every other rank must raise CommTimeoutError within the deadline
  // instead of hanging forever in the ring.
  const int n = 4;
  const double timeout = 0.2;
  comm::ProcessGroup group(n, timeout);

  std::atomic<int> timed_out{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      if (rank == 2) return;  // dies before entering the collective
      comm::Communicator comm = group.communicator(rank);
      std::vector<double> data(16, 1.0);
      try {
        comm::ring_all_reduce(comm, std::span<double>(data), 5);
      } catch (const comm::CommTimeoutError&) {
        ++timed_out;
      } catch (const comm::CommAbortedError&) {
        ++timed_out;  // a peer noticed first and aborted under us
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(timed_out.load(), n - 1);
  // Bounded unwind: one timeout (plus scheduling slack), not a hang.
  EXPECT_LT(seconds_since(start), 10 * timeout);
}

TEST(CommFault, RecvTimesOutWithDescriptiveError) {
  comm::ProcessGroup group(2, 0.05);
  comm::Communicator comm = group.communicator(0);
  try {
    comm.recv(1, 42);
    FAIL() << "recv should have timed out";
  } catch (const comm::CommTimeoutError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("tag=42"), std::string::npos);
  }
}

TEST(CommFault, BarrierTimesOutWhenARankNeverArrives) {
  comm::ProcessGroup group(2, 0.05);
  comm::Communicator comm = group.communicator(0);
  const auto start = Clock::now();
  EXPECT_THROW(comm.barrier(), comm::CommTimeoutError);
  EXPECT_LT(seconds_since(start), 1.0);
}

TEST(CommFault, AbortWakesBlockedRecvAndBarrier) {
  // No timeout configured: only abort() can release the blocked ranks.
  comm::ProcessGroup group(3);
  std::atomic<int> aborted{0};
  std::thread blocked_recv([&] {
    comm::Communicator comm = group.communicator(0);
    try {
      comm.recv(1, 7);
    } catch (const comm::CommAbortedError&) {
      ++aborted;
    }
  });
  std::thread blocked_barrier([&] {
    comm::Communicator comm = group.communicator(1);
    try {
      comm.barrier();
    } catch (const comm::CommAbortedError&) {
      ++aborted;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  group.abort();
  blocked_recv.join();
  blocked_barrier.join();
  EXPECT_EQ(aborted.load(), 2);
}

TEST(CommFault, AbortPoisonsSubsequentCalls) {
  comm::ProcessGroup group(2);
  group.abort();
  EXPECT_TRUE(group.aborted());
  comm::Communicator comm = group.communicator(0);
  EXPECT_THROW(comm.send(1, 1, {1.0}), comm::CommAbortedError);
  EXPECT_THROW(comm.recv(1, 1), comm::CommAbortedError);
  EXPECT_THROW(comm.barrier(), comm::CommAbortedError);

  // Collectives fail uniformly, even on paths that move no data.
  comm::ProcessGroup solo(1);
  solo.abort();
  comm::Communicator alone = solo.communicator(0);
  std::vector<double> data(4, 1.0);
  EXPECT_THROW(comm::ring_all_reduce(alone, std::span<double>(data), 1),
               comm::CommAbortedError);
  EXPECT_THROW(comm::broadcast(alone, data, 0, 2), comm::CommAbortedError);
  EXPECT_THROW(comm::all_gather(alone, data, 3), comm::CommAbortedError);
  const auto buckets = comm::make_buckets(data.size(), 2);
  EXPECT_THROW(
      comm::BucketReducer(alone, std::span<double>(data), 1.0, buckets, 4)
          .finish(),
      comm::CommAbortedError);
}

TEST(CommFault, TimeoutDoesNotFireOnHealthyTraffic) {
  const int n = 4;
  comm::ProcessGroup group(n, 5.0);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      comm::Communicator comm = group.communicator(rank);
      std::vector<double> data{static_cast<double>(rank)};
      try {
        comm::ring_all_reduce(comm, std::span<double>(data), 9);
        comm.barrier();
        if (data[0] != 6.0) failed = true;
      } catch (const comm::CommError&) {
        failed = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(CommFault, DeadRankMidBucketFailsPendingWorksWithinDeadline) {
  // The async-engine acceptance property: every surviving rank has a
  // full pipeline of bucket Works in flight when rank 2 dies. The first
  // bucket op times out, the reducer aborts the group, and *all*
  // pending Works -- in flight and still queued -- fail within roughly
  // one deadline instead of each serving its own timeout.
  const int n = 4;
  const double timeout = 0.2;
  const std::size_t elems = 64;
  comm::ProcessGroup group(n, timeout);
  const auto buckets = comm::make_buckets(elems, 8);  // 8 buckets queued

  std::atomic<int> unwound{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      if (rank == 2) return;  // dies before contributing any bucket
      comm::Communicator comm = group.communicator(rank);
      std::vector<double> grad(elems, 1.0);
      const std::uint64_t base = comm.tags().block(
          comm::CollectiveKind::kBucketAllReduce, buckets.size());
      comm::BucketReducer reducer(comm, std::span<double>(grad), 0.25,
                                  buckets, base);
      reducer.mark_ready(0, elems);  // all 8 Works now pending
      try {
        reducer.finish();
      } catch (const comm::CommError&) {
        ++unwound;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(unwound.load(), n - 1);
  // One timeout + slack, NOT 8 serial timeouts: the abort propagated
  // through the pending-Work queue.
  EXPECT_LT(seconds_since(start), 4 * timeout);
  EXPECT_TRUE(group.aborted());
}

// ----------------------------------------------- trainer watchdog path

TEST(ParallelTrainerFault, InjectedWorkerDeathAbortsInsteadOfHanging) {
  const auto dataset = dnn::make_gaussian_mixture(600, 10, 3, 3.5, 42);
  dnn::TrainerOptions options;
  options.num_nodes = 3;
  options.lr_scaling = dnn::LrScaling::kNone;
  options.initial_total_batch = 60;
  options.seed = 7;
  options.comm_timeout_seconds = 0.2;
  options.inject_failure_rank = 1;
  options.inject_failure_step = 2;
  dnn::ParallelTrainer trainer(
      &dataset, [] { return dnn::make_mlp(10, 16, 1, 3); }, options);

  const auto params_before = trainer.params();
  const auto start = Clock::now();
  EXPECT_THROW(trainer.run_epoch({30, 20, 10}), comm::CommAbortedError);
  EXPECT_LT(seconds_since(start), 5.0);
  // The aborted epoch is discarded: parameters stay at the last
  // consistent snapshot every surviving replica could restart from.
  EXPECT_EQ(trainer.params(), params_before);
}

// -------------------------------------------------------- FaultInjector

TEST(FaultInjector, ValidatesEvents) {
  sim::FaultInjector injector;
  EXPECT_THROW(injector.schedule({-1, sim::FaultKind::kNodeCrash, 0}),
               std::invalid_argument);
  EXPECT_THROW(injector.schedule({0, sim::FaultKind::kNodeCrash, -1}),
               std::invalid_argument);
  EXPECT_THROW(
      injector.schedule({0, sim::FaultKind::kTransientStraggler, 0, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      injector.schedule(
          {0, sim::FaultKind::kPermanentSlowdown, 0, 0.5, /*duration=*/3}),
      std::invalid_argument);
  EXPECT_TRUE(injector.empty());
}

TEST(FaultInjector, TransientEventsExpandIntoOnsetAndRecovery) {
  sim::FaultInjector injector;
  injector.schedule({3, sim::FaultKind::kTransientStraggler, 1, 0.5, 4});

  ASSERT_EQ(injector.events().size(), 2u);
  const auto onset = injector.due(3);
  ASSERT_EQ(onset.size(), 1u);
  EXPECT_DOUBLE_EQ(onset[0].severity, 0.5);
  const auto recovery = injector.due(7);
  ASSERT_EQ(recovery.size(), 1u);
  EXPECT_DOUBLE_EQ(recovery[0].severity, 1.0);
  EXPECT_TRUE(injector.due(5).empty());
}

TEST(FaultInjector, RandomScenarioIsDeterministicInTheSeed) {
  const auto a = sim::FaultInjector::random_scenario(11, 8, 40, 6);
  const auto b = sim::FaultInjector::random_scenario(11, 8, 40, 6);
  const auto c = sim::FaultInjector::random_scenario(12, 8, 40, 6);

  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_DOUBLE_EQ(a.events()[i].severity, b.events()[i].severity);
  }
  EXPECT_GE(a.events().size(), 6u);
  // Different seed, different schedule (holds for these seeds).
  bool differs = a.events().size() != c.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].epoch != c.events()[i].epoch ||
              a.events()[i].node != c.events()[i].node;
  }
  EXPECT_TRUE(differs);
}

TEST(ClusterJobNetwork, SetNetworkScaleRescalesCommSchedule) {
  sim::ClusterJob job(sim::cluster_b(), workloads::by_name("cifar10").profile,
                      sim::NoiseConfig::none(), 1);
  const double total_before = job.comm().total();
  job.set_network_scale(0.5);
  EXPECT_GT(job.comm().total(), total_before);
  job.set_network_scale(1.0);
  EXPECT_NEAR(job.comm().total(), total_before, 1e-12);
  EXPECT_THROW(job.set_network_scale(0.0), std::invalid_argument);
}

// -------------------------------------- elastic failure-driven recovery

TEST(ElasticRecovery, CrashShrinksAllocationAndWarmStarts) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4, 8, 9});
  for (int epoch = 0; epoch < 6; ++epoch) job.run_epoch();

  const double progress_before = job.progress_fraction();
  const auto& report = job.apply_fault(
      {/*epoch=*/6, sim::FaultKind::kNodeCrash, /*node=*/4});

  EXPECT_EQ(job.allocation(), (std::vector<int>{0, 8, 9}));
  EXPECT_EQ(job.crash_recoveries(), 1);
  // Survivor types (a100, rtx) were learned before the crash: the
  // controller warm-starts instead of re-paying bootstrap epochs.
  EXPECT_TRUE(report.warm);
  EXPECT_GT(report.overhead_seconds, 0.0);

  const double with_recovery = job.run_epoch();
  EXPECT_GE(with_recovery, report.overhead_seconds);
  EXPECT_GT(job.progress_fraction(), progress_before);
  // The overhead is charged exactly once.
  EXPECT_LT(job.run_epoch(), with_recovery);
}

TEST(ElasticRecovery, LastNodeCrashThrows) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0});
  EXPECT_THROW(job.apply_fault({0, sim::FaultKind::kNodeCrash, 0}),
               std::runtime_error);
}

TEST(ElasticRecovery, CrashOfUnallocatedNodeIsIgnored) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4});
  job.apply_fault({0, sim::FaultKind::kNodeCrash, 9});
  EXPECT_EQ(job.crash_recoveries(), 0);
  EXPECT_EQ(job.allocation(), (std::vector<int>{0, 4}));
}

TEST(ElasticRecovery, SlowdownPersistsAcrossReallocation) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4});
  job.apply_fault({0, sim::FaultKind::kPermanentSlowdown, 4, 0.5});
  job.apply_fault({0, sim::FaultKind::kNetworkDegrade, -1, 0.5});
  // Node 4 leaves and comes back: it is still slow, and the network is
  // still degraded -- faults stick to the hardware, not the allocation.
  job.set_allocation({0, 8});
  job.set_allocation({0, 4, 8});
  EXPECT_EQ(job.crash_recoveries(), 0);
  for (int epoch = 0; epoch < 2; ++epoch) job.run_epoch();
  EXPECT_GT(job.progress_fraction(), 0.0);
}

TEST(ElasticRecovery, RunWithFaultsEmitsRecoveryTrace) {
  // The in-process recovery path: kDiscardEpoch, no cadence checkpoints.
  const TempDir dir("cannikin-fault-trace");
  sched::SupervisorOptions options;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every_epochs = 0;
  options.crash_policy = sched::CrashPolicy::kDiscardEpoch;
  sched::TrainingSupervisor supervisor(&workloads::by_name("cifar10"),
                                       sim::cluster_b(), sim::NoiseConfig{},
                                       3, options);
  supervisor.start({0, 4, 8, 9});

  sim::FaultInjector injector;
  injector.schedule({4, sim::FaultKind::kNodeCrash, 4});
  injector.schedule({8, sim::FaultKind::kTransientStraggler, 0, 0.5, 4});
  injector.schedule({16, sim::FaultKind::kNetworkDegrade, -1, 0.25, 3});

  const auto trace = supervisor.run(injector, 300);
  EXPECT_TRUE(trace.reached_target);
  EXPECT_EQ(trace.crash_recoveries, 1);
  EXPECT_EQ(trace.warm_crash_recoveries, 1);
  EXPECT_GT(trace.drift_resets, 0);
  EXPECT_GT(trace.recovery_overhead_seconds, 0.0);
  EXPECT_EQ(trace.stats.restores, 0);

  ASSERT_GE(trace.rows.size(), 20u);
  EXPECT_EQ(trace.rows[3].num_nodes, 4);
  EXPECT_EQ(trace.rows[4].num_nodes, 3);
  // The event column names each fault on its epoch, and the transient
  // faults' auto-recoveries on theirs; quiet epochs stay blank.
  EXPECT_NE(trace.rows[4].events.find("crash"), std::string::npos);
  EXPECT_TRUE(trace.rows[7].events.empty());
  EXPECT_FALSE(trace.rows[8].events.empty());
  EXPECT_FALSE(trace.rows[12].events.empty());  // straggler recovers
  EXPECT_TRUE(trace.rows[15].events.empty());
  EXPECT_FALSE(trace.rows[16].events.empty());
  EXPECT_FALSE(trace.rows[19].events.empty());  // network recovers
  // The straggler and degraded epochs really ran slower than the epoch
  // before them.
  EXPECT_LT(trace.rows[8].throughput, 0.8 * trace.rows[7].throughput);
  EXPECT_LT(trace.rows[16].throughput, 0.8 * trace.rows[15].throughput);

  const auto metrics = sched::recovery_metrics(trace);
  ASSERT_EQ(metrics.size(), 3u);  // crash + straggler + degrade onsets
  EXPECT_TRUE(metrics[0].recovered);
  EXPECT_GE(metrics[0].epochs_to_recover, 0);
}

// A reallocation rebuilds the simulator but keeps the job's noise
// stream: with the bank off, a job reallocated to the same nodes at
// epoch 6 re-plans exactly as it did from epoch 0, and each epoch after
// it must draw its own lifetime epoch's noise, not replay epoch 0-5's.
TEST(ElasticRecovery, ReallocatedJobDrawsItsLifetimeEpochNoise) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3,
                                /*use_model_bank=*/false);
  const std::vector<int> nodes = {0, 4, 8, 9};
  job.set_allocation(nodes);
  std::vector<double> first;
  for (int epoch = 0; epoch < 6; ++epoch) first.push_back(job.run_epoch());
  job.set_allocation(nodes);
  for (int epoch = 0; epoch < 6; ++epoch) {
    EXPECT_NE(job.run_epoch(), first[static_cast<std::size_t>(epoch)])
        << "epoch " << 6 + epoch << " replays epoch " << epoch;
  }
}

// The elastic job runs the harness's epoch step: on the same node
// subset, seed and policy its epoch costs are bitwise the harness rows'
// (training + overhead), so the two cannot drift apart.
TEST(ElasticRecovery, EpochCostEqualsTheHarnessRow) {
  const auto& workload = workloads::by_name("cifar10");
  const sim::ClusterSpec full = sim::cluster_b();
  const std::vector<int> nodes = {0, 4, 8, 9};

  sched::ElasticCannikinJob elastic(&workload, full, sim::NoiseConfig{}, 3);
  elastic.set_allocation(nodes);

  sim::ClusterSpec subset;
  subset.network = full.network;
  for (int id : nodes) {
    subset.nodes.push_back(full.nodes[static_cast<std::size_t>(id)]);
  }
  sim::ClusterJob job(subset, workload.profile, sim::NoiseConfig{}, 3);
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  experiments::CannikinSystem system(job.size(), caps, workload.b0,
                                     workload.max_total_batch);
  const auto trace = experiments::run_to_target(job, workload, system);
  ASSERT_TRUE(trace.reached_target);

  for (const auto& row : trace.epochs) {
    EXPECT_EQ(elastic.run_epoch(), row.epoch_seconds + row.overhead_seconds)
        << "epoch " << row.epoch;
  }
  EXPECT_TRUE(elastic.done());
}

// ------------------------------------ partition / flaky / corrupt kinds

TEST(FaultInjector, ValidatesPartitionAndFlakyEvents) {
  sim::FaultInjector injector;
  // A partition needs its minority-side node list...
  EXPECT_THROW(injector.schedule({0, sim::FaultKind::kNetworkPartition, -1,
                                  0.5, /*duration=*/2}),
               std::invalid_argument);
  // ...and a scheduled heal; a never-healing partition is a crash.
  EXPECT_THROW(
      injector.schedule({0, sim::FaultKind::kNetworkPartition, -1, 0.5,
                         /*duration=*/0, /*partition=*/{1, 2}}),
      std::invalid_argument);
  // Only kNetworkPartition carries a partition list.
  EXPECT_THROW(injector.schedule({0, sim::FaultKind::kNodeCrash, 1, 0.5,
                                  /*duration=*/0, /*partition=*/{1}}),
               std::invalid_argument);
  // Flaky severity is a drop probability: must lie in (0, 1].
  EXPECT_THROW(
      injector.schedule({0, sim::FaultKind::kLinkFlaky, -1, 1.5,
                         /*duration=*/2}),
      std::invalid_argument);
  EXPECT_TRUE(injector.empty());
}

TEST(FaultInjector, KindNamesCoverNewKindsAndUnknownFallsBack) {
  EXPECT_STREQ(sim::fault_kind_name(sim::FaultKind::kNetworkPartition),
               "network-partition");
  EXPECT_STREQ(sim::fault_kind_name(sim::FaultKind::kLinkFlaky),
               "link-flaky");
  EXPECT_STREQ(sim::fault_kind_name(sim::FaultKind::kCheckpointCorrupt),
               "checkpoint-corrupt");
  // Out-of-range values (corrupted storage, kinds from a newer binary)
  // must not crash the diagnostic path.
  EXPECT_STREQ(sim::fault_kind_name(static_cast<sim::FaultKind>(999)),
               "unknown");
}

TEST(FaultInjector, PartitionExpandsIntoOnsetAndHeal) {
  sim::FaultInjector injector;
  injector.schedule({3, sim::FaultKind::kNetworkPartition, -1, 0.5,
                     /*duration=*/2, /*partition=*/{8, 9}});

  ASSERT_EQ(injector.events().size(), 2u);
  const auto onset = injector.due(3);
  ASSERT_EQ(onset.size(), 1u);
  EXPECT_LT(onset[0].severity, 1.0);
  EXPECT_EQ(onset[0].partition, (std::vector<int>{8, 9}));
  const auto heal = injector.due(5);
  ASSERT_EQ(heal.size(), 1u);
  EXPECT_DOUBLE_EQ(heal[0].severity, 1.0);
  // The heal marker keeps the member list so the elastic runtime knows
  // which side to re-admit.
  EXPECT_EQ(heal[0].partition, (std::vector<int>{8, 9}));
}

TEST(FaultInjector, FlakyLinksRecoverToZeroDropProbability) {
  sim::FaultInjector injector;
  injector.schedule({2, sim::FaultKind::kLinkFlaky, -1, 0.25,
                     /*duration=*/3});
  const auto recovery = injector.due(5);
  ASSERT_EQ(recovery.size(), 1u);
  // Severity is a drop probability here, so the auto-generated recovery
  // marker is 0.0 (healthy links) -- the usual 1.0 would read as "drop
  // every message".
  EXPECT_DOUBLE_EQ(recovery[0].severity, 0.0);
}

TEST(ElasticRecovery, PartitionShrinksThenHealReadmitsWarm) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4, 8, 9});
  for (int epoch = 0; epoch < 6; ++epoch) job.run_epoch();

  // Onset: {8, 9} are cut off; the survivors keep training on
  // their rescaled gradient share -- an elastic shrink, not a restart.
  const auto& shrink = job.apply_fault(
      {6, sim::FaultKind::kNetworkPartition, -1, 0.5, 0, {8, 9}});
  EXPECT_EQ(job.allocation(), (std::vector<int>{0, 4}));
  EXPECT_EQ(job.partition_shrinks(), 1);
  EXPECT_EQ(job.partitioned_nodes(), (std::vector<int>{8, 9}));
  EXPECT_GT(shrink.overhead_seconds, 0.0);
  EXPECT_GT(job.run_epoch(), 0.0);

  // Heal: the cut-off side re-joins warm (its types were learned
  // before the cut, so no bootstrap epochs are re-paid).
  const auto& heal = job.apply_fault(
      {8, sim::FaultKind::kNetworkPartition, -1, 1.0, 0, {8, 9}});
  EXPECT_EQ(job.allocation().size(), 4u);
  EXPECT_TRUE(job.partitioned_nodes().empty());
  EXPECT_EQ(job.node_rejoins(), 2);
  EXPECT_TRUE(heal.warm);
}

TEST(ElasticRecovery, PartitionMissingTheJobLeavesItUntouched) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4, 8, 9});
  for (int epoch = 0; epoch < 3; ++epoch) job.run_epoch();

  // The cut isolates nodes this job does not hold: nothing to shrink,
  // and no recovery time is charged.
  const auto& report = job.apply_fault(
      {3, sim::FaultKind::kNetworkPartition, -1, 0.5, 0, {1, 2}});
  EXPECT_EQ(job.allocation(), (std::vector<int>{0, 4, 8, 9}));
  EXPECT_EQ(job.partition_shrinks(), 0);
  EXPECT_TRUE(job.partitioned_nodes().empty());
  EXPECT_DOUBLE_EQ(report.overhead_seconds, 0.0);

  // Its heal marker re-admits nobody.
  job.apply_fault({5, sim::FaultKind::kNetworkPartition, -1, 1.0, 0, {1, 2}});
  EXPECT_EQ(job.allocation(), (std::vector<int>{0, 4, 8, 9}));
  EXPECT_EQ(job.node_rejoins(), 0);
}

TEST(ElasticRecovery, PartitionCuttingEveryNodeThrowsAndKeepsTheJob) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4});
  for (int epoch = 0; epoch < 3; ++epoch) job.run_epoch();

  // No side survives to keep training, so there is nothing to shrink
  // to: the job refuses and keeps its allocation.
  EXPECT_THROW(job.apply_fault({3, sim::FaultKind::kNetworkPartition, -1,
                                0.5, 0, {0, 4}}),
               std::runtime_error);
  EXPECT_EQ(job.allocation(), (std::vector<int>{0, 4}));
  EXPECT_EQ(job.partition_shrinks(), 0);
  EXPECT_TRUE(job.partitioned_nodes().empty());
  EXPECT_GT(job.run_epoch(), 0.0);
}

TEST(ElasticRecovery, FlakyLinksSlowEpochsUntilRecovery) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4, 8, 9});
  for (int epoch = 0; epoch < 6; ++epoch) job.run_epoch();

  const double healthy = job.run_epoch();
  // Drop probability 0.5: every message costs an expected two
  // transmissions, so effective network throughput halves.
  job.apply_fault({7, sim::FaultKind::kLinkFlaky, -1, 0.5, 0, {}});
  const double flaky = job.run_epoch();
  EXPECT_GT(flaky, healthy);

  // The auto-recovery marker (severity 0) restores healthy links.
  job.apply_fault({8, sim::FaultKind::kLinkFlaky, -1, 0.0, 0, {}});
  EXPECT_LT(job.run_epoch(), flaky);
}

}  // namespace
}  // namespace cannikin
