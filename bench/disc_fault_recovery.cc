// Extension: failure-driven elastic recovery ("manages sudden changes
// of resources", Section 1 -- the hostile half of the claim).
//
// Three fault scenarios run end-to-end against an ElasticCannikinJob on
// cluster B under a TrainingSupervisor with the in-process crash policy
// (CrashPolicy::kDiscardEpoch), each emitting a recovery-time trace
// (per-epoch effective throughput, i.e. progress per simulated second):
//
//  1. node crash    -- the elastic job banks the learned models,
//                      shrinks to the survivors and warm-starts the
//                      controller; compared against the same crash with
//                      the model bank disabled (cold restart, which
//                      re-pays the bootstrap epochs).
//  2. transient straggler -- contention spike with recovery; drift
//                      detection must re-learn twice without a restart.
//  3. network degrade -- interconnect bandwidth drops and recovers.
//
// Two scenarios run the same crash under the checkpoint-restore
// policy, where the crash kills the whole process:
//
//  4. checkpoint-restore vs discard-epoch -- the supervisor restores
//     from the latest on-disk checkpoint (measured, not modeled,
//     write/restore cost) vs the in-process recovery that keeps state
//     but models the restart constant.
//  5. shrink-only vs re-join -- after the crash, one run stays on the
//     survivors while the other gets the node back via kNodeRecover
//     (allocation grows, warm start from banked models: zero
//     bootstrap epochs).
#include "bench_common.h"


#include "common/temp_dir.h"
#include "sched/fault_recovery.h"
#include "sched/supervisor.h"
#include "sim/faults.h"

namespace {

using namespace cannikin;
using cannikin::bench::shape_check;

constexpr int kMaxEpochs = 400;

void print_trace(const sched::FaultRecoveryTrace& trace, int max_rows = 18) {
  experiments::TablePrinter table(
      {"epoch", "nodes", "epoch(s)", "tput(samp/s)", "progress", "event"});
  const int n = static_cast<int>(trace.rows.size());
  for (int i = 0; i < n; ++i) {
    const auto& row = trace.rows[static_cast<std::size_t>(i)];
    // Keep the table readable on long runs: always show fault epochs,
    // elide quiet mid-run rows.
    if (i >= max_rows && row.events.empty() && i != n - 1) continue;
    table.add_row({std::to_string(row.epoch), std::to_string(row.num_nodes),
                   experiments::TablePrinter::fmt(row.epoch_seconds, 2),
                   experiments::TablePrinter::fmt(row.throughput, 0),
                   experiments::TablePrinter::fmt(row.progress, 3),
                   row.events});
  }
  table.print();
}

void print_metrics(const std::vector<sched::RecoveryMetric>& metrics) {
  for (const auto& metric : metrics) {
    std::printf(
        "  [%s] pre=%.0f dip=%.0f steady=%.0f samp/s, epochs-to-recover=%d\n",
        metric.event.c_str(), metric.pre_throughput, metric.dip_throughput,
        metric.steady_throughput, metric.epochs_to_recover);
  }
}

// Supervised run in a private throwaway checkpoint directory (so
// concurrent runs never share one); the trace carries the measured
// checkpoint-write/restore seconds. Scenarios 1-3 run the in-process
// recovery (kDiscardEpoch, no cadence checkpoints), which touches the
// store only for the epoch-0 checkpoint.
sched::FaultRecoveryTrace run_supervised(const sim::FaultInjector& injector,
                                         sched::CrashPolicy policy,
                                         const std::string& subdir,
                                         obs::Scope obs = {},
                                         std::size_t* final_nodes = nullptr,
                                         int checkpoint_every_epochs = 2,
                                         bool use_model_bank = true) {
  const TempDir dir("cannikin-bench-ckpt-" + subdir);

  sched::SupervisorOptions options;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every_epochs = checkpoint_every_epochs;
  options.crash_policy = policy;
  options.obs = obs;
  const auto& workload = workloads::by_name("cifar10");
  sched::TrainingSupervisor supervisor(&workload, sim::cluster_b(),
                                       sim::NoiseConfig{}, 3,
                                       std::move(options), use_model_bank);
  supervisor.start({0, 4, 8, 9});
  auto trace = supervisor.run(injector, kMaxEpochs);
  if (final_nodes != nullptr) {
    *final_nodes =
        supervisor.has_job() ? supervisor.job().allocation().size() : 0;
  }
  return trace;
}

// The in-process scenarios 1-3.
sched::FaultRecoveryTrace run_scenario(const sim::FaultInjector& injector,
                                       const std::string& subdir,
                                       bool use_model_bank = true) {
  return run_supervised(injector, sched::CrashPolicy::kDiscardEpoch, subdir,
                        {}, nullptr, /*checkpoint_every_epochs=*/0,
                        use_model_bank);
}

}  // namespace

int main() {
  experiments::print_banner(
      "Extension: fault injection and failure-driven elastic recovery");
  // Supervised scenarios record sched.* metrics straight into this
  // report; the headline recovery numbers are added as gauges below and
  // the whole registry lands in BENCH_fault_recovery.json.
  bench::BenchReport report("bench/disc_fault_recovery");

  // ------------------------------------------------------- 1. crash
  sim::FaultInjector crash;
  crash.schedule({/*epoch=*/6, sim::FaultKind::kNodeCrash, /*node=*/4});

  const auto warm_trace = run_scenario(crash, "warm");
  std::printf("\n-- scenario: node crash (warm start from model bank) --\n");
  print_trace(warm_trace);
  const auto warm_metrics = sched::recovery_metrics(warm_trace);
  print_metrics(warm_metrics);
  std::printf(
      "crash recoveries: %d (warm: %d), modeled recovery overhead %.2fs\n",
      warm_trace.crash_recoveries, warm_trace.warm_crash_recoveries,
      warm_trace.recovery_overhead_seconds);

  const auto cold_trace =
      run_scenario(crash, "cold", /*use_model_bank=*/false);
  std::printf("\nwarm time-to-target %.1fs vs cold restart %.1fs\n",
              warm_trace.total_seconds, cold_trace.total_seconds);

  shape_check(warm_trace.reached_target && warm_trace.crash_recoveries == 1,
              "the job survives the crash and reaches the target");
  shape_check(warm_trace.warm_crash_recoveries == 1,
              "survivor types are covered by the bank: no bootstrap re-paid");
  shape_check(!warm_metrics.empty() && warm_metrics[0].recovered &&
                  warm_metrics[0].epochs_to_recover <= 2,
              "throughput is back at the survivors' steady state within 2 "
              "epochs of the crash");
  shape_check(warm_trace.total_seconds < cold_trace.total_seconds,
              "warm start beats the cold restart that re-pays bootstrap");

  // -------------------------------------------- 2. transient straggler
  sim::FaultInjector straggler;
  straggler.schedule({/*epoch=*/5, sim::FaultKind::kTransientStraggler,
                      /*node=*/0, /*severity=*/0.5, /*duration_epochs=*/6});

  const auto straggler_trace = run_scenario(straggler, "straggler");
  std::printf("\n-- scenario: transient straggler (node 0, 6 epochs) --\n");
  print_trace(straggler_trace);
  print_metrics(sched::recovery_metrics(straggler_trace));
  std::printf("drift resets: %d, crash recoveries: %d\n",
              straggler_trace.drift_resets, straggler_trace.crash_recoveries);

  shape_check(straggler_trace.reached_target &&
                  straggler_trace.crash_recoveries == 0,
              "the straggler is ridden out in place: no restart");
  shape_check(straggler_trace.drift_resets > 0,
              "drift detection notices the contention spike and re-learns");

  // ------------------------------------------------ 3. network degrade
  sim::FaultInjector network;
  network.schedule({/*epoch=*/5, sim::FaultKind::kNetworkDegrade, /*node=*/-1,
                    /*severity=*/0.25, /*duration_epochs=*/5});

  const auto network_trace = run_scenario(network, "network");
  std::printf("\n-- scenario: network degrade (bandwidth x0.25, 5 epochs) --\n");
  print_trace(network_trace);
  print_metrics(sched::recovery_metrics(network_trace));

  shape_check(network_trace.reached_target,
              "training rides out the degraded interconnect");

  // -------------------- 4. supervised crash: checkpointed vs discard
  sim::FaultInjector supervised_crash;
  supervised_crash.schedule({/*epoch=*/7, sim::FaultKind::kNodeCrash,
                             /*node=*/4});

  const auto ckpt_trace =
      run_supervised(supervised_crash, sched::CrashPolicy::kCheckpointRestore,
                     "restore", report.scope());
  std::printf(
      "\n-- scenario: supervised crash, checkpoint-restore policy --\n");
  print_trace(ckpt_trace);
  std::printf(
      "checkpoints written: %d (%.4fs measured), restores: %d "
      "(%.4fs measured), epochs lost to rollback: %d\n",
      ckpt_trace.stats.checkpoints_written,
      ckpt_trace.stats.checkpoint_write_seconds, ckpt_trace.stats.restores,
      ckpt_trace.stats.restore_seconds,
      ckpt_trace.stats.epochs_lost_to_rollback);

  const auto discard_trace =
      run_supervised(supervised_crash, sched::CrashPolicy::kDiscardEpoch,
                     "discard", report.scope());
  std::printf(
      "checkpointed restart %.1fs total (measured overhead %.4fs) vs "
      "discard-epoch %.1fs total (modeled overhead %.2fs)\n",
      ckpt_trace.total_seconds,
      ckpt_trace.stats.checkpoint_write_seconds +
          ckpt_trace.stats.restore_seconds,
      discard_trace.total_seconds, discard_trace.recovery_overhead_seconds);

  shape_check(ckpt_trace.reached_target && ckpt_trace.stats.restores == 1 &&
                  ckpt_trace.stats.restore_attempts == 1,
              "the supervisor restores from the latest checkpoint on the "
              "first attempt and still reaches the target");
  shape_check(ckpt_trace.stats.restore_seconds > 0.0 &&
                  ckpt_trace.stats.checkpoint_write_seconds > 0.0,
              "restart overhead is measured wall clock, not a modeled "
              "constant");
  shape_check(ckpt_trace.stats.epochs_lost_to_rollback > 0,
              "state since the last checkpoint is genuinely lost (rollback)");
  shape_check(
      discard_trace.reached_target && discard_trace.stats.restores == 0,
      "discard-epoch policy recovers in process, no restore");

  // ----------------------------- 5. shrink-only vs elastic re-join
  sim::FaultInjector crash_rejoin;
  crash_rejoin.schedule({/*epoch=*/7, sim::FaultKind::kNodeCrash, /*node=*/4});
  crash_rejoin.schedule({/*epoch=*/13, sim::FaultKind::kNodeRecover,
                         /*node=*/4, /*severity=*/1.0});

  std::size_t rejoin_nodes = 0;
  const auto rejoin_trace =
      run_supervised(crash_rejoin, sched::CrashPolicy::kCheckpointRestore,
                     "rejoin", report.scope(), &rejoin_nodes);
  std::printf("\n-- scenario: crash then node re-join at epoch 13 --\n");
  print_trace(rejoin_trace);
  std::printf(
      "node rejoins: %d (warm: %d), final allocation: %zu nodes\n"
      "shrink-only time-to-target %.1fs vs re-join %.1fs\n",
      rejoin_trace.node_rejoins, rejoin_trace.warm_rejoins, rejoin_nodes,
      ckpt_trace.total_seconds, rejoin_trace.total_seconds);

  shape_check(rejoin_trace.reached_target && rejoin_trace.node_rejoins == 1,
              "the recovered node is re-admitted into the allocation");
  shape_check(rejoin_nodes == 4,
              "the allocation grows back to all four nodes");
  shape_check(rejoin_trace.warm_rejoins == 1,
              "the re-joining node warm-starts from the banked per-type "
              "models: zero bootstrap epochs");
  shape_check(rejoin_trace.total_seconds < ckpt_trace.total_seconds,
              "getting the node back beats finishing on the survivors");

  report.gauge("crash.warm_total_seconds", warm_trace.total_seconds);
  report.gauge("crash.cold_total_seconds", cold_trace.total_seconds);
  report.gauge("crash.recovery_overhead_seconds",
               warm_trace.recovery_overhead_seconds);
  report.gauge("straggler.drift_resets",
               static_cast<double>(straggler_trace.drift_resets));
  report.gauge("supervised.checkpoint_write_seconds",
               ckpt_trace.stats.checkpoint_write_seconds);
  report.gauge("supervised.restore_seconds",
               ckpt_trace.stats.restore_seconds);
  report.gauge("supervised.epochs_lost_to_rollback",
               static_cast<double>(
                   ckpt_trace.stats.epochs_lost_to_rollback));
  report.gauge("supervised.restore_total_seconds", ckpt_trace.total_seconds);
  report.gauge("supervised.discard_total_seconds",
               discard_trace.total_seconds);
  report.gauge("rejoin.total_seconds", rejoin_trace.total_seconds);
  report.gauge("rejoin.warm_rejoins",
               static_cast<double>(rejoin_trace.warm_rejoins));
  report.write("BENCH_fault_recovery.json");
  return 0;
}
