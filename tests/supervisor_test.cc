// TrainingSupervisor: the robustness acceptance surface. A node crash
// kills the training process; the supervisor restores from the latest
// checkpoint within its retry budget (measured, not modeled, restore
// cost), a later kNodeRecover grows the allocation back with a warm
// start (zero bootstrap epochs), and the run still converges. Plus the
// failure policies around that: bounded retries with exponential
// backoff, clean give-up, the legacy discard-epoch policy, and the
// recovery_metrics window clamp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sched/fault_recovery.h"
#include "sched/supervisor.h"
#include "sim/cluster.h"
#include "sim/cluster_factory.h"
#include "sim/faults.h"
#include "workloads/registry.h"

namespace {

using namespace cannikin;

constexpr int kMaxEpochs = 400;

sched::TrainingSupervisor make_supervisor(const std::string& dir,
                                          sched::SupervisorOptions options =
                                              {}) {
  options.checkpoint_dir = dir;
  if (options.checkpoint_every_epochs == 5) options.checkpoint_every_epochs = 2;
  const auto& workload = workloads::by_name("cifar10");
  return sched::TrainingSupervisor(&workload, sim::cluster_b(),
                                   sim::NoiseConfig{}, /*seed=*/3,
                                   std::move(options));
}

// The end-to-end acceptance property: crash -> restore from latest
// checkpoint within the retry budget; node re-join -> allocation grows
// back warm (zero bootstrap epochs); training still reaches the target
// in a comparable number of epochs to the fault-free run.
TEST(Supervisor, CrashRestoreAndWarmRejoinEndToEnd) {
  // Fault-free baseline for the convergence comparison.
  TempDir baseline_dir("cannikin-supervisor-e2e-baseline");
  sched::SupervisorOptions baseline_options;
  baseline_options.crash_policy = sched::CrashPolicy::kDiscardEpoch;
  baseline_options.checkpoint_every_epochs = 0;
  sched::TrainingSupervisor baseline =
      make_supervisor(baseline_dir.str(), baseline_options);
  baseline.start({0, 4, 8, 9});
  const auto clean = baseline.run(sim::FaultInjector{}, kMaxEpochs);
  ASSERT_TRUE(clean.reached_target);

  TempDir dir("cannikin-supervisor-e2e");
  sched::TrainingSupervisor supervisor = make_supervisor(dir.str());
  supervisor.start({0, 4, 8, 9});

  sim::FaultInjector faults;
  faults.schedule({/*epoch=*/7, sim::FaultKind::kNodeCrash, /*node=*/4});
  faults.schedule({/*epoch=*/12, sim::FaultKind::kNodeRecover, /*node=*/4,
                   /*severity=*/1.0});
  const auto trace = supervisor.run(faults, kMaxEpochs);

  // Crash: one restore, first attempt, from a real checkpoint file,
  // with measured (wall-clock) cost charged into the trace.
  EXPECT_EQ(trace.stats.restores, 1);
  EXPECT_EQ(trace.stats.restore_attempts, 1);
  EXPECT_NE(trace.stats.outcome, sched::SupervisorOutcome::kGaveUp);
  EXPECT_GT(trace.stats.restore_seconds, 0.0);
  EXPECT_GT(trace.stats.checkpoint_write_seconds, 0.0);
  EXPECT_GE(trace.stats.checkpoints_written, 3);
  // Checkpoint cadence 2 with the crash one epoch past a checkpoint:
  // exactly that epoch is lost to rollback.
  EXPECT_EQ(trace.stats.epochs_lost_to_rollback, 1);

  // Re-join: allocation grows back to all 4 nodes, warm-started from
  // the banked per-type models -- zero bootstrap epochs re-paid.
  EXPECT_EQ(trace.node_rejoins, 1);
  EXPECT_EQ(trace.warm_rejoins, 1);
  ASSERT_TRUE(supervisor.has_job());
  EXPECT_EQ(supervisor.job().allocation().size(), 4u);

  // Convergence: the faulted run still reaches the target, within a
  // modest epoch overhead over fault-free (it trained on 3 nodes for a
  // few epochs and re-ran one rolled-back epoch).
  EXPECT_TRUE(trace.reached_target);
  EXPECT_EQ(supervisor.stats().outcome,
            sched::SupervisorOutcome::kReachedTarget);
  const int clean_epochs = static_cast<int>(clean.rows.size());
  const int faulted_epochs = static_cast<int>(trace.rows.size());
  EXPECT_LE(faulted_epochs, clean_epochs + clean_epochs / 2 + 5);
}

TEST(Supervisor, RetriesWithBackoffThenSucceeds) {
  TempDir dir("cannikin-supervisor-retry");
  sched::SupervisorOptions options;
  options.max_restore_attempts = 3;
  options.backoff_initial_seconds = 0.5;
  options.backoff_multiplier = 2.0;
  sched::TrainingSupervisor supervisor = make_supervisor(dir.str(), options);
  supervisor.start({0, 4, 8, 9});
  // First replacement process fails to come up; the second succeeds.
  supervisor.set_restore_fault_hook([](int attempt) {
    if (attempt == 1) throw std::runtime_error("spawn failed");
  });

  sim::FaultInjector faults;
  faults.schedule({/*epoch=*/5, sim::FaultKind::kNodeCrash, /*node=*/4});
  const auto trace = supervisor.run(faults, kMaxEpochs);

  EXPECT_TRUE(trace.reached_target);
  EXPECT_NE(trace.stats.outcome, sched::SupervisorOutcome::kGaveUp);
  EXPECT_EQ(trace.stats.restores, 1);
  EXPECT_EQ(trace.stats.restore_attempts, 2);
  // One failed attempt => exactly one initial-backoff wait charged.
  EXPECT_DOUBLE_EQ(trace.stats.backoff_seconds, 0.5);
}

TEST(Supervisor, GivesUpCleanlyAfterRetryBudget) {
  TempDir dir("cannikin-supervisor-giveup");
  sched::SupervisorOptions options;
  options.max_restore_attempts = 3;
  options.backoff_initial_seconds = 0.5;
  options.backoff_multiplier = 2.0;
  sched::TrainingSupervisor supervisor = make_supervisor(dir.str(), options);
  supervisor.start({0, 4, 8, 9});
  supervisor.set_restore_fault_hook(
      [](int) { throw std::runtime_error("cluster is on fire"); });

  sim::FaultInjector faults;
  faults.schedule({/*epoch=*/4, sim::FaultKind::kNodeCrash, /*node=*/4});
  const auto trace = supervisor.run(faults, kMaxEpochs);

  EXPECT_EQ(trace.stats.outcome, sched::SupervisorOutcome::kGaveUp);
  EXPECT_FALSE(trace.reached_target);
  EXPECT_EQ(trace.stats.restores, 0);
  EXPECT_EQ(trace.stats.restore_attempts, 3);
  // Backoff between attempts 1-2 and 2-3: 0.5 + 1.0, none after the last.
  EXPECT_DOUBLE_EQ(trace.stats.backoff_seconds, 1.5);
  EXPECT_FALSE(supervisor.has_job());
  EXPECT_EQ(supervisor.stats().outcome, sched::SupervisorOutcome::kGaveUp);
  EXPECT_NE(supervisor.stats().give_up_reason.find("cluster is on fire"),
            std::string::npos);
  // The aborted epoch is still recorded, with the crash event on it.
  ASSERT_FALSE(trace.rows.empty());
  EXPECT_NE(trace.rows.back().events.find("crash"), std::string::npos);
}

TEST(Supervisor, DiscardEpochPolicyRecoversInProcess) {
  TempDir dir("cannikin-supervisor-discard");
  sched::SupervisorOptions options;
  options.crash_policy = sched::CrashPolicy::kDiscardEpoch;
  sched::TrainingSupervisor supervisor = make_supervisor(dir.str(), options);
  supervisor.start({0, 4, 8, 9});

  sim::FaultInjector faults;
  faults.schedule({/*epoch=*/6, sim::FaultKind::kNodeCrash, /*node=*/4});
  const auto trace = supervisor.run(faults, kMaxEpochs);

  EXPECT_TRUE(trace.reached_target);
  // No restore happened: recovery was the in-process shrink.
  EXPECT_EQ(trace.stats.restores, 0);
  EXPECT_EQ(trace.stats.restore_attempts, 0);
  EXPECT_EQ(trace.stats.epochs_lost_to_rollback, 0);
  EXPECT_EQ(trace.crash_recoveries, 1);
  EXPECT_EQ(supervisor.job().allocation().size(), 3u);
}

TEST(Supervisor, RetentionBoundsCheckpointFiles) {
  TempDir dir("cannikin-supervisor-retention");
  sched::SupervisorOptions options;
  options.keep_last = 2;
  options.checkpoint_every_epochs = 1;
  sched::TrainingSupervisor supervisor = make_supervisor(dir.str(), options);
  supervisor.start({0, 4, 8, 9});
  const auto trace = supervisor.run(sim::FaultInjector{}, kMaxEpochs);
  EXPECT_TRUE(trace.reached_target);
  EXPECT_GT(trace.stats.checkpoints_written, 2);
  EXPECT_LE(supervisor.store().list().size(), 2u);
}

// Satellite: a kCheckpointCorrupt fault damages the newest checkpoint
// on disk; a crash in the same epoch forces a restore, which must
// CRC-skip the damaged file, fall back to the previous good one, and
// report the skip through sched.checkpoint.skipped_corrupt.
TEST(Supervisor, CorruptCheckpointIsSkippedAtRestore) {
  TempDir dir("cannikin-supervisor-corrupt");
  obs::MetricsRegistry metrics;
  sched::SupervisorOptions options;
  options.obs = obs::Scope(nullptr, &metrics);
  sched::TrainingSupervisor supervisor =
      make_supervisor(dir.str(), std::move(options));
  supervisor.start({0, 4, 8, 9});

  sim::FaultInjector faults;
  faults.schedule({/*epoch=*/9, sim::FaultKind::kCheckpointCorrupt, -1});
  faults.schedule({/*epoch=*/9, sim::FaultKind::kNodeCrash, /*node=*/4});
  const auto trace = supervisor.run(faults, kMaxEpochs);

  EXPECT_EQ(trace.stats.checkpoint_corruptions, 1);
  EXPECT_EQ(trace.stats.restores, 1);
  EXPECT_NE(trace.stats.outcome, sched::SupervisorOutcome::kGaveUp);
  EXPECT_TRUE(trace.reached_target);
  EXPECT_GE(metrics.counter("sched.checkpoint.skipped_corrupt"), 1.0);
  EXPECT_EQ(metrics.counter("sched.checkpoint.corrupted"), 1.0);
}

TEST(Supervisor, StartGuards) {
  TempDir dir("cannikin-supervisor-guards");
  sched::TrainingSupervisor supervisor = make_supervisor(dir.str());
  EXPECT_THROW(supervisor.run(sim::FaultInjector{}, 10), std::logic_error);
  EXPECT_THROW(supervisor.job(), std::logic_error);
  supervisor.start({0, 4});
  EXPECT_THROW(supervisor.start({0, 4}), std::logic_error);
}

// Satellite: a fault striking in the final `horizon` epochs used to
// derive its "steady state" from a near-empty window (often just the
// dip row itself) and report instant recovery. It must instead be
// clamped and reported unrecovered.
TEST(RecoveryMetrics, FaultNearTraceEndIsReportedUnrecovered) {
  sched::FaultRecoveryTrace trace;
  for (int e = 0; e < 10; ++e) {
    sched::FaultEpochRow row;
    row.epoch = e;
    row.num_nodes = 4;
    row.epoch_seconds = 1.0;
    row.throughput = 100.0;
    trace.rows.push_back(row);
  }
  // Dip at the fault epochs so recovery is non-trivial.
  trace.rows[2].throughput = 40.0;
  trace.rows[8].throughput = 40.0;

  sched::RecoveryReport mid;
  mid.epoch = 2;
  mid.event = {/*epoch=*/2, sim::FaultKind::kNodeCrash, /*node=*/1};
  trace.recoveries.push_back(mid);

  sched::RecoveryReport late;
  late.epoch = 8;  // only one post-fault row: no steady state to measure
  late.event = {/*epoch=*/8, sim::FaultKind::kNodeCrash, /*node=*/2};
  trace.recoveries.push_back(late);

  const auto metrics = sched::recovery_metrics(trace);
  ASSERT_EQ(metrics.size(), 2u);

  EXPECT_TRUE(metrics[0].recovered);
  EXPECT_EQ(metrics[0].epochs_to_recover, 1);

  EXPECT_FALSE(metrics[1].recovered);
  EXPECT_EQ(metrics[1].epochs_to_recover, -1);
}

}  // namespace
