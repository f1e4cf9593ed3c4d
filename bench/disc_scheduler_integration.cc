// Section 6 discussion: "Adapt to schedulers for heterogeneous
// clusters" -- Cannikin enables schedulers that hand a *mixed* set of
// GPU types to each job, which homogeneous-allocation schedulers
// (Pollux/Optimus/Sia-per-job) cannot exploit.
//
// Three jobs share cluster B:
//   static    -- blind equal partition by node index, never re-allocated
//   goodput   -- greedy marginal-goodput allocation with heterogeneous
//                mixes + elastic scale-up when a job finishes
//
// Shape: the goodput scheduler shortens the makespan and routes the
// A100s to the compute-hungry job.
#include "bench_common.h"

#include "sched/fleet.h"

namespace {

using namespace cannikin;

/// Submits every job at t = 0 and runs the fleet to completion.
sched::FleetResult run_fleet(
    std::unique_ptr<sched::SchedulingPolicy> policy,
    const std::vector<const workloads::Workload*>& jobs) {
  sched::FleetOptions options;
  options.seed = 31;
  sched::FleetSim fleet(sim::cluster_b(), std::move(policy), options);
  for (const workloads::Workload* workload : jobs) {
    sched::JobSpec spec;
    spec.name = workload->name;
    spec.workload = workload;
    fleet.submit(std::move(spec));
  }
  return fleet.run();
}

}  // namespace

int main() {
  using namespace cannikin::bench;

  experiments::print_banner(
      "Discussion: multi-job scheduling over heterogeneous cluster B");

  const std::vector<const workloads::Workload*> jobs{
      &workloads::by_name("movielens"),
      &workloads::by_name("imagenet"),
      &workloads::by_name("cifar10"),
  };

  const auto smart = run_fleet(
      std::make_unique<sched::GoodputGreedyPolicy>(sim::cluster_b()), jobs);
  const auto naive = run_fleet(
      std::make_unique<sched::StaticPartitionPolicy>(
          sim::cluster_b().size(), static_cast<int>(jobs.size())),
      jobs);

  experiments::TablePrinter table({"job", "goodput-sched(s)", "static(s)",
                                   "epochs(goodput)", "reallocations"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    table.add_row(
        {smart.jobs[i].workload,
         experiments::TablePrinter::fmt(smart.jobs[i].completion_seconds, 1),
         experiments::TablePrinter::fmt(naive.jobs[i].completion_seconds, 1),
         std::to_string(smart.jobs[i].epochs),
         std::to_string(smart.jobs[i].reallocations)});
  }
  table.print();
  std::printf("\nmakespan: goodput=%.1fs static=%.1fs  mean completion: "
              "%.1fs vs %.1fs\n",
              smart.makespan, naive.makespan, smart.mean_jct,
              naive.mean_jct);

  shape_check(smart.makespan < naive.makespan,
              "goodput scheduling with heterogeneous per-job mixes "
              "shortens the makespan");
  bool all_done = true;
  for (const auto& outcome : smart.jobs) {
    all_done = all_done && outcome.completion_seconds > 0.0;
  }
  shape_check(all_done, "every job reaches its target under reallocation");
  return 0;
}
