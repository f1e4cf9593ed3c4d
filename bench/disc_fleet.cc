// Discussion: multi-tenant fleet scheduling over heterogeneous
// cluster B -- the policy/mechanism redesign exercised at fleet scale.
//
// A 120-job Poisson arrival trace (mixed workloads, priority classes,
// short fine-tune convergence targets) runs three times through the
// SAME FleetSim mechanism, swapping only the SchedulingPolicy:
//
//   fifo     -- rigid first-come-first-served, head-of-line blocking
//   static   -- fixed contiguous 4-way partitions, heterogeneity-blind
//   goodput  -- Pollux-style elastic packer with marginal-goodput
//               preemption (evict only when the horizon gain beats the
//               checkpoint/restore cost)
//
// Shape: the goodput policy improves BOTH mean JCT and fleet goodput
// (effective samples per virtual second of makespan) over the rigid
// baselines. The mean-JCT-vs-FIFO check is a hard gate: the binary
// exits non-zero when it fails, so scripts/run_fleet_bench.sh can
// enforce it in CI.
//
// All virtual-time metrics are pure functions of (trace, policy,
// seed); only the `measured_*` wall-clock entries vary run to run --
// among them each policy's decision-time p50/p90, printed on
// `measured_` lines and reported to BENCH_fleet.json.
#include "bench_common.h"

#include <cstdlib>

#include "sched/fleet.h"
#include "sched/policy.h"

namespace {

using namespace cannikin;

/// Mixed tenant trace: short fine-tunes of the registered workloads
/// with varied priorities, node minima and rigid-size requests.
std::vector<sched::JobSpec> make_specs(int count) {
  const std::vector<const workloads::Workload*> mix{
      &workloads::by_name("cifar10"),
      &workloads::by_name("movielens"),
      &workloads::by_name("imagenet"),
  };
  std::vector<sched::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    sched::JobSpec spec;
    spec.workload = mix[static_cast<std::size_t>(i) % mix.size()];
    spec.name = std::string(spec.workload->name) + "-" + std::to_string(i);
    spec.priority = i % 3;               // three tenant classes
    spec.target_fraction = 0.02 + 0.01 * (i % 4);  // short fine-tunes
    spec.min_nodes = 1 + (i % 2);
    spec.preferred_nodes = 2 + (i % 3);  // what rigid policies grant
    specs.push_back(spec);
  }
  return specs;
}

/// One policy's run plus the wall clock of its decisions.
struct PolicyRun {
  sched::FleetResult result;
  obs::MetricsRegistry::HistogramSummary decision_us;
};

PolicyRun run_policy(const sim::ClusterSpec& cluster,
                     std::unique_ptr<sched::SchedulingPolicy> policy,
                     const std::vector<sched::JobArrival>& trace) {
  obs::MetricsRegistry registry;
  sched::FleetOptions options;
  options.seed = 47;
  options.checkpoint_every_epochs = 3;
  options.rebalance_interval_seconds = 400.0;
  options.preemption_cost_seconds = 30.0;
  options.obs = obs::Scope(nullptr, &registry);
  sched::FleetSim fleet(cluster, std::move(policy), options);
  fleet.submit(trace);
  PolicyRun run{fleet.run(), {}};
  run.decision_us = registry.histogram("fleet.policy_decision_us");
  return run;
}

void report_policy(cannikin::bench::BenchReport& report,
                   const PolicyRun& run) {
  const std::string prefix = "fleet." + run.result.policy + ".";
  for (const auto& [name, value] : run.result.metrics()) {
    report.gauge(prefix + name, value);
  }
  report.gauge(prefix + "measured_policy_decision_us_p50", run.decision_us.p50);
  report.gauge(prefix + "measured_policy_decision_us_p90", run.decision_us.p90);
}

}  // namespace

int main() {
  using namespace cannikin;
  using namespace cannikin::bench;

  experiments::print_banner(
      "Discussion: multi-tenant fleet scheduling over heterogeneous "
      "cluster B (120-job Poisson trace)");

  const auto cluster = sim::cluster_b();
  const int kJobs = 120;
  const auto trace =
      sched::poisson_arrivals(make_specs(kJobs), /*mean_interarrival=*/260.0,
                              /*seed=*/901);

  const PolicyRun runs[] = {
      run_policy(cluster, std::make_unique<sched::GoodputGreedyPolicy>(cluster),
                 trace),
      run_policy(cluster, std::make_unique<sched::FifoPolicy>(), trace),
      run_policy(
          cluster,
          std::make_unique<sched::StaticPartitionPolicy>(cluster.size(), 4),
          trace),
  };
  const sched::FleetResult& goodput = runs[0].result;
  const sched::FleetResult& fifo = runs[1].result;
  const sched::FleetResult& fixed = runs[2].result;

  experiments::TablePrinter table({"policy", "mean JCT(s)", "p50", "p90",
                                   "p99", "queue(s)", "goodput(samp/s)",
                                   "preempts", "done"});
  for (const auto* result : {&goodput, &fifo, &fixed}) {
    table.add_row({result->policy,
                   experiments::TablePrinter::fmt(result->mean_jct, 1),
                   experiments::TablePrinter::fmt(result->p50_jct, 1),
                   experiments::TablePrinter::fmt(result->p90_jct, 1),
                   experiments::TablePrinter::fmt(result->p99_jct, 1),
                   experiments::TablePrinter::fmt(
                       result->mean_queueing_delay, 1),
                   experiments::TablePrinter::fmt(result->fleet_goodput, 1),
                   std::to_string(result->preemptions),
                   std::to_string(result->completed_jobs)});
  }
  table.print();
  std::printf("\npreemption overhead: goodput=%.1fs (%d epochs rolled "
              "back, %d checkpoints)\n",
              goodput.preemption_overhead_seconds,
              goodput.epochs_lost_to_preemption, goodput.checkpoints_written);
  // Wall clock, so it varies run to run; the measured_ prefix keeps
  // these lines out of determinism diffs.
  for (const PolicyRun& run : runs) {
    std::printf("measured_policy_decision_us %s: p50 %.1f  p90 %.1f  "
                "(%zu decisions)\n",
                run.result.policy.c_str(), run.decision_us.p50,
                run.decision_us.p90, run.decision_us.count);
  }

  BenchReport report("disc_fleet");
  report.gauge("fleet.trace.jobs", static_cast<double>(kJobs));
  report.gauge("fleet.trace.nodes", static_cast<double>(cluster.size()));
  for (const PolicyRun& run : runs) report_policy(report, run);

  const bool all_complete =
      goodput.completed_jobs == kJobs && fifo.completed_jobs == kJobs &&
      fixed.completed_jobs == kJobs;
  shape_check(all_complete, "every job in the trace reaches its target "
                            "under all three policies");
  shape_check(goodput.mean_jct < fixed.mean_jct,
              "goodput packing beats static partitions on mean JCT");
  shape_check(goodput.fleet_goodput > fifo.fleet_goodput &&
                  goodput.fleet_goodput > fixed.fleet_goodput,
              "goodput packing trains more effective samples per fleet "
              "second than both rigid baselines");
  shape_check(goodput.mean_queueing_delay < fifo.mean_queueing_delay,
              "elastic admission cuts queueing delay vs FIFO "
              "head-of-line blocking");

  const bool gate = goodput.mean_jct < fifo.mean_jct;
  shape_check(gate, "GATE: goodput policy improves mean JCT over FIFO");
  report.gauge("fleet.gate.goodput_beats_fifo_mean_jct", gate ? 1.0 : 0.0);
  report.write("BENCH_fleet.json");
  return gate ? 0 : 1;
}
