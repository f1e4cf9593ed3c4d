// Partition tolerance and chaos fuzzing: plan_delivery retry/backoff
// semantics, the LinkFaults lossy-network model, quorum-mode all-reduce
// (exclude-and-rescale vs QuorumLostError), lossy-link training that
// converges through retries, and the seeded chaos harness invariants
// (no deadlock, typed errors only, restore-or-clean-give-up, replay
// determinism, schedule shrinking).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "chaos/chaos_harness.h"
#include "comm/process_group.h"
#include "comm/quorum.h"
#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/parallel_trainer.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "temp_dir.h"

namespace cannikin {
namespace {

using chaos::ChaosConfig;
using chaos::ChaosResult;
using chaos::ChaosSchedule;

// ------------------------------------------------------- plan_delivery

sim::FabricModel lossy_fabric(double drop, std::uint64_t seed) {
  sim::FabricModel fabric = sim::FabricModel::uniform_latency(1e-4);
  fabric.faults.enabled = true;
  fabric.faults.drop_probability = drop;
  fabric.faults.seed = seed;
  return fabric;
}

TEST(PlanDelivery, FaultFreeFastPathDeliversFirstAttempt) {
  const sim::FabricModel fabric = sim::FabricModel::uniform_latency(2e-3);
  sim::RetryPolicy retry;
  retry.max_attempts = 5;
  const sim::DeliveryPlan plan =
      sim::plan_delivery(fabric, retry, 0, 1, 64, 1.0, 7);
  EXPECT_TRUE(plan.delivered);
  EXPECT_EQ(plan.attempts, 1);
  EXPECT_EQ(plan.resends, 0);
  EXPECT_DOUBLE_EQ(plan.delivery_seconds, 1.0 + 2e-3);
}

TEST(PlanDelivery, SameInputsReplayIdentically) {
  const sim::FabricModel fabric = lossy_fabric(0.5, 99);
  sim::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.seed = 3;
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const sim::DeliveryPlan a =
        sim::plan_delivery(fabric, retry, 2, 5, 128, 0.25, seq);
    const sim::DeliveryPlan b =
        sim::plan_delivery(fabric, retry, 2, 5, 128, 0.25, seq);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.delivery_seconds, b.delivery_seconds);
  }
}

TEST(PlanDelivery, ExhaustedBudgetDropsTheMessage) {
  // drop_probability 1.0: every attempt lost, budget runs out.
  const sim::FabricModel fabric = lossy_fabric(1.0, 1);
  sim::RetryPolicy retry;
  retry.max_attempts = 4;
  const sim::DeliveryPlan plan =
      sim::plan_delivery(fabric, retry, 0, 1, 8, 0.0, 0);
  EXPECT_FALSE(plan.delivered);
  EXPECT_EQ(plan.attempts, 4);
  EXPECT_EQ(plan.resends, 3);
}

TEST(PlanDelivery, BackoffRidesOutAPartitionThatHeals) {
  sim::FabricModel fabric = sim::FabricModel::uniform_latency(1e-4);
  fabric.faults.enabled = true;
  fabric.faults.partition_side = {0, 1};  // rank 0 vs rank 1
  fabric.faults.partition_start_seconds = 0.0;
  fabric.faults.partition_heal_seconds = 0.05;
  sim::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.backoff_initial_seconds = 0.005;
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 0.0;
  // Attempts at t = 0, .005, .015, .035, .075: the t=0.075 attempt is
  // past the heal and goes through.
  const sim::DeliveryPlan plan =
      sim::plan_delivery(fabric, retry, 0, 1, 8, 0.0, 0);
  EXPECT_TRUE(plan.delivered);
  EXPECT_GT(plan.resends, 0);
  EXPECT_GE(plan.delivery_seconds, 0.05);

  // Same cut, never heals: the budget runs out.
  fabric.faults.partition_heal_seconds = -1.0;
  const sim::DeliveryPlan dropped =
      sim::plan_delivery(fabric, retry, 0, 1, 8, 0.0, 0);
  EXPECT_FALSE(dropped.delivered);

  // Same side of the cut: unaffected.
  fabric.faults.partition_side = {0, 0};
  const sim::DeliveryPlan same_side =
      sim::plan_delivery(fabric, retry, 0, 1, 8, 0.0, 0);
  EXPECT_TRUE(same_side.delivered);
  EXPECT_EQ(same_side.resends, 0);
}

TEST(LinkFaults, PartitionWindowAndSides) {
  sim::LinkFaults faults;
  faults.enabled = true;
  faults.partition_side = {0, 0, 1};
  faults.partition_start_seconds = 1.0;
  faults.partition_heal_seconds = 2.0;
  EXPECT_FALSE(faults.partitioned(0, 2, 0.5));  // before the cut
  EXPECT_TRUE(faults.partitioned(0, 2, 1.5));   // across, active
  EXPECT_TRUE(faults.partitioned(2, 1, 1.5));   // symmetric
  EXPECT_FALSE(faults.partitioned(0, 1, 1.5));  // same side
  EXPECT_FALSE(faults.partitioned(0, 2, 2.5));  // healed
  // Ranks beyond the side vector default to side 0.
  EXPECT_TRUE(faults.partitioned(2, 7, 1.5));
  EXPECT_FALSE(faults.partitioned(0, 7, 1.5));
}

TEST(LinkFaults, DropDecisionIsAPureHash) {
  sim::LinkFaults faults;
  faults.enabled = true;
  faults.drop_probability = 0.5;
  faults.seed = 42;
  int drops = 0;
  for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
    const bool first = faults.dropped(0, 1, attempt);
    EXPECT_EQ(first, faults.dropped(0, 1, attempt));  // replayable
    drops += first ? 1 : 0;
  }
  EXPECT_GT(drops, 400);  // roughly the configured probability
  EXPECT_LT(drops, 600);
}

// ------------------------------------------------------------- quorum

TEST(Quorum, AllReduceExcludesPartitionedRankAndRescales) {
  // 4 ranks; rank 3 is cut off by a never-healing partition. The
  // majority side excludes it and rescales by the surviving weight.
  comm::GroupOptions options;
  options.size = 4;
  options.timeout_seconds = 5.0;
  options.fabric = sim::FabricModel::uniform_latency(1e-5);
  options.fabric.faults.enabled = true;
  options.fabric.faults.partition_side = {0, 0, 0, 1};
  options.fabric.faults.partition_heal_seconds = -1.0;
  comm::ProcessGroup group(options);
  group.set_quorum({/*enabled=*/true, /*min_quorum=*/0});

  EXPECT_FALSE(group.reachable(0, 3));
  EXPECT_TRUE(group.reachable(0, 2));
  EXPECT_EQ(group.reachable_ranks(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(group.reachable_ranks(3), (std::vector<int>{3}));

  std::vector<std::vector<double>> data = {{0.0}, {1.0}, {2.0}, {30.0}};
  std::vector<comm::QuorumOutcome> outcomes(3);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 3; ++rank) {
    threads.emplace_back([&, rank] {
      const double weight = rank + 1.0;  // GNS weights 1, 2, 3
      outcomes[static_cast<std::size_t>(rank)] = comm::quorum_weighted_all_reduce(
          group.communicator(rank), data[static_cast<std::size_t>(rank)],
          weight, 11);
    });
  }
  for (auto& t : threads) t.join();

  // (1*0 + 2*1 + 3*2) / (1+2+3) = 8/6; all survivors agree bitwise.
  for (int rank = 0; rank < 3; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    EXPECT_DOUBLE_EQ(data[r][0], 8.0 / 6.0);
    EXPECT_EQ(outcomes[r].excluded, (std::vector<int>{3}));
    EXPECT_DOUBLE_EQ(outcomes[r].surviving_weight, 6.0);
    EXPECT_DOUBLE_EQ(outcomes[r].rescale, 1.0 / 6.0);
    EXPECT_TRUE(outcomes[r].degraded());
  }
  EXPECT_EQ(data[0], data[1]);
  EXPECT_EQ(data[0], data[2]);
}

TEST(Quorum, MinoritySideRefusesToReduce) {
  // 2-2 split: neither side has a strict majority (3 of 4); both must
  // throw QuorumLostError rather than train on a partitioned cluster.
  comm::GroupOptions options;
  options.size = 4;
  options.timeout_seconds = 5.0;
  options.fabric = sim::FabricModel::uniform_latency(1e-5);
  options.fabric.faults.enabled = true;
  options.fabric.faults.partition_side = {0, 0, 1, 1};
  options.fabric.faults.partition_heal_seconds = -1.0;
  comm::ProcessGroup group(options);
  group.set_quorum({/*enabled=*/true, /*min_quorum=*/0});

  std::atomic<int> quorum_lost{0};
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 4; ++rank) {
    threads.emplace_back([&, rank] {
      std::vector<double> data{1.0};
      try {
        comm::quorum_weighted_all_reduce(group.communicator(rank), data, 1.0,
                                         5);
      } catch (const comm::QuorumLostError&) {
        quorum_lost.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(quorum_lost.load(), 4);
}

TEST(Quorum, RequiresQuorumModeEnabled) {
  comm::ProcessGroup group(2);
  std::vector<double> data{1.0};
  EXPECT_THROW(
      comm::quorum_weighted_all_reduce(group.communicator(0), data, 1.0, 1),
      comm::CommError);
}

// ------------------------------------------- lossy-link training (DDP)

TEST(LossyLink, TrainingConvergesThroughRetriesWithoutDiscardingEpochs) {
  // Flaky fabric (5% per-attempt drop) under a retry budget that makes
  // end-to-end loss negligible: training must complete every epoch --
  // no epoch discarded, no comm error -- and reach bitwise-identical
  // parameters to the clean run, because retries only delay delivery.
  const auto dataset = dnn::make_gaussian_mixture(240, 10, 3, 3.5, 42);
  const auto factory = [] { return dnn::make_mlp(10, 16, 1, 3); };

  dnn::TrainerOptions clean;
  clean.num_nodes = 3;
  clean.base_lr = 0.05;
  clean.lr_scaling = dnn::LrScaling::kNone;
  clean.initial_total_batch = 60;
  clean.seed = 7;

  dnn::TrainerOptions lossy = clean;
  lossy.comm_timeout_seconds = 20.0;
  lossy.comm_fabric = sim::FabricModel::uniform_latency(1e-6);
  lossy.comm_fabric.faults.enabled = true;
  lossy.comm_fabric.faults.drop_probability = 0.05;
  lossy.comm_fabric.faults.seed = 13;
  lossy.comm_retry.max_attempts = 8;
  lossy.comm_retry.backoff_initial_seconds = 1e-5;
  lossy.comm_retry.seed = 13;
  obs::MetricsRegistry metrics;
  lossy.obs = obs::Scope(nullptr, &metrics);

  dnn::ParallelTrainer reference(&dataset, factory, clean);
  dnn::ParallelTrainer trainer(&dataset, factory, lossy);
  for (int epoch = 0; epoch < 2; ++epoch) {
    reference.run_epoch({30, 20, 10});
    trainer.run_epoch({30, 20, 10});  // throws if an epoch is lost
  }

  ASSERT_EQ(trainer.params().size(), reference.params().size());
  for (std::size_t i = 0; i < trainer.params().size(); ++i) {
    EXPECT_EQ(trainer.params()[i], reference.params()[i]) << "param " << i;
  }
  // The lossy run really did lose frames -- and retransmitted them all.
  EXPECT_GT(metrics.counter("comm.retry.resends"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter("comm.retry.dropped"), 0.0);
}

// ------------------------------------------------------ chaos harness

ChaosConfig small_config(std::uint64_t seed) {
  // One private checkpoint directory per test process: the harness's
  // default per-seed path is shared by every process fuzzing that seed,
  // so parallel tests would wipe each other's checkpoints mid-write.
  // Runs within a process are sequential and wipe it up front.
  static const test::TempDir dir("cannikin-chaos-test");
  ChaosConfig config;
  config.checkpoint_dir = dir.str();
  config.ranks = 64;
  config.rounds = 6;
  config.num_faults = 5;
  config.seed = seed;
  return config;
}

TEST(ChaosHarness, FaultFreeRunCommitsEveryRound) {
  ChaosConfig config = small_config(3);
  config.num_faults = 0;
  const ChaosResult result = chaos::run_chaos_seed(config);
  EXPECT_TRUE(result.ok) << chaos::describe_schedule(
      chaos::make_chaos_schedule(config));
  EXPECT_EQ(result.rounds_completed, config.rounds);
  EXPECT_EQ(result.rounds_discarded, 0);
  EXPECT_EQ(result.typed_errors, 0u);
  EXPECT_FALSE(result.gave_up);
  EXPECT_GT(result.events, 0u);
}

TEST(ChaosHarness, ScheduleGenerationIsDeterministic) {
  const ChaosConfig config = small_config(17);
  const ChaosSchedule a = chaos::make_chaos_schedule(config);
  const ChaosSchedule b = chaos::make_chaos_schedule(config);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].describe(), b.faults[i].describe());
  }
}

TEST(ChaosHarness, FuzzManySeedsWithoutViolations) {
  // The in-tree slice of the acceptance sweep (bench/chaos_fuzz runs
  // the full 500): every seeded schedule must hold every invariant.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ChaosConfig config = small_config(seed);
    const ChaosSchedule schedule = chaos::make_chaos_schedule(config);
    const ChaosResult result = chaos::run_chaos_schedule(config, schedule);
    EXPECT_TRUE(result.ok) << "seed " << seed << "\n"
                           << chaos::describe_schedule(schedule) << "first: "
                           << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().invariant +
                                         ": " +
                                         result.violations.front().detail);
  }
}

TEST(ChaosHarness, FuzzAtTwoHundredFiftySixRanks) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    ChaosConfig config = small_config(seed);
    config.ranks = 256;
    const ChaosSchedule schedule = chaos::make_chaos_schedule(config);
    const ChaosResult result = chaos::run_chaos_schedule(config, schedule);
    EXPECT_TRUE(result.ok) << "seed " << seed << "\n"
                           << chaos::describe_schedule(schedule);
  }
}

TEST(ChaosHarness, ReplayOfTheSameSeedIsBitwiseIdentical) {
  for (const std::uint64_t seed : {5ULL, 21ULL, 33ULL}) {
    const ChaosConfig config = small_config(seed);
    const ChaosSchedule schedule = chaos::make_chaos_schedule(config);
    const ChaosResult result =
        chaos::check_replay_determinism(config, schedule);
    EXPECT_TRUE(result.ok) << "seed " << seed << "\n"
                           << chaos::describe_schedule(schedule);
  }
}

TEST(ChaosHarness, CrashRestoresFromCheckpointOrGivesUpCleanly) {
  // Sweep seeds until the generator produces a process crash, then
  // check the restore-or-clean-give-up invariant fired visibly.
  bool saw_restore_or_give_up = false;
  for (std::uint64_t seed = 1; seed <= 40 && !saw_restore_or_give_up;
       ++seed) {
    const ChaosConfig config = small_config(seed);
    const ChaosSchedule schedule = chaos::make_chaos_schedule(config);
    bool has_process_crash = false;
    for (const auto& fault : schedule.faults) {
      has_process_crash |= fault.process_crash;
    }
    if (!has_process_crash) continue;
    const ChaosResult result = chaos::run_chaos_schedule(config, schedule);
    EXPECT_TRUE(result.ok) << chaos::describe_schedule(schedule);
    saw_restore_or_give_up = result.restores > 0 || result.gave_up;
  }
  EXPECT_TRUE(saw_restore_or_give_up);
}

TEST(ChaosHarness, ShrinkerReducesToTheMinimalSchedule) {
  // Force a synthetic violation on kCheckpointCorrupt: the shrinker
  // must strip every other fault and keep exactly one reproducer.
  ChaosConfig config = small_config(2);
  config.forced_violation_kind =
      static_cast<int>(sim::FaultKind::kCheckpointCorrupt);

  ChaosSchedule schedule;
  schedule.seed = 2;
  for (int i = 0; i < 6; ++i) {
    chaos::ChaosFault fault;
    fault.kind = sim::FaultKind::kTransientStraggler;
    fault.round = i % 3;
    fault.node = i;
    schedule.faults.push_back(fault);
  }
  chaos::ChaosFault corrupt;
  corrupt.kind = sim::FaultKind::kCheckpointCorrupt;
  corrupt.round = 2;
  schedule.faults.push_back(corrupt);

  ASSERT_FALSE(chaos::run_chaos_schedule(config, schedule).ok);
  const ChaosSchedule minimal = chaos::shrink_schedule(config, schedule);
  ASSERT_EQ(minimal.faults.size(), 1u);
  EXPECT_EQ(minimal.faults[0].kind, sim::FaultKind::kCheckpointCorrupt);
  EXPECT_FALSE(chaos::run_chaos_schedule(config, minimal).ok);
}

TEST(ChaosHarness, ShrinkerReturnsCleanSchedulesUntouched) {
  const ChaosConfig config = small_config(3);
  const ChaosSchedule schedule = chaos::make_chaos_schedule(config);
  ASSERT_TRUE(chaos::run_chaos_schedule(config, schedule).ok);
  const ChaosSchedule same = chaos::shrink_schedule(config, schedule);
  EXPECT_EQ(same.faults.size(), schedule.faults.size());
}

}  // namespace
}  // namespace cannikin
