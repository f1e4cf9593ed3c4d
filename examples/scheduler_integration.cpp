// Scheduler integration (Section 6): three jobs share the 16-GPU
// heterogeneous cluster B under the goodput scheduler; jobs are
// re-allocated elastically when one completes, and each reallocation
// warm-starts from the per-GPU-type model bank.
//
//   build/examples/scheduler_integration
#include <cstdio>
#include <memory>
#include <utility>

#include "sched/fleet.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

int main() {
  using namespace cannikin;

  const std::vector<const workloads::Workload*> jobs{
      &workloads::by_name("cifar10"),
      &workloads::by_name("imagenet"),
      &workloads::by_name("movielens"),
  };
  std::printf("submitting %zu jobs to cluster B (4x A100, 4x V100, 8x "
              "RTX6000)\n\n",
              jobs.size());

  for (const bool goodput : {true, false}) {
    std::unique_ptr<sched::SchedulingPolicy> policy;
    if (goodput) {
      policy = std::make_unique<sched::GoodputGreedyPolicy>(sim::cluster_b());
    } else {
      policy = std::make_unique<sched::StaticPartitionPolicy>(
          sim::cluster_b().size(), static_cast<int>(jobs.size()));
    }
    sched::FleetOptions options;
    options.seed = 5;
    sched::FleetSim fleet(sim::cluster_b(), std::move(policy), options);
    for (const workloads::Workload* workload : jobs) {
      sched::JobSpec spec;
      spec.name = workload->name;
      spec.workload = workload;
      fleet.submit(std::move(spec));
    }
    const sched::FleetResult result = fleet.run();

    std::printf("%s:\n", goodput
                             ? "goodput scheduler (heterogeneous mixes, elastic)"
                             : "static equal partition");
    for (const auto& outcome : result.jobs) {
      std::printf("  %-10s done in %8.1f s  (%d epochs, %d reallocations, "
                  "%d warm starts)\n",
                  outcome.workload.c_str(), outcome.completion_seconds,
                  outcome.epochs, outcome.reallocations,
                  outcome.warm_reallocations);
    }
    std::printf("  makespan %.1f s, mean completion %.1f s\n\n",
                result.makespan, result.mean_jct);
  }
  std::printf(
      "The goodput scheduler hands the A100s to the compute-hungry job\n"
      "and lets finished jobs' nodes flow to the survivors; Cannikin\n"
      "absorbs the resulting heterogeneity inside each job.\n");
  return 0;
}
