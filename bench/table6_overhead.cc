// Table 6: Cannikin's configuration overhead per workload on cluster B.
//
// Overhead = modeled planning cost (the OptPerf equation solves of
// candidate evaluation, at the harness's calibrated per-solve cost) +
// modeled reconfiguration cost (local-batch and data-index
// distribution), relative to epoch training time. The measured planning
// wall clock, which the simulated clock does not see, is printed after
// the table for comparison with the per-solve model.
//
// Paper shape: far below 1% for the medium/large models; the small
// fast-epoch applications (CIFAR-10, MovieLens) peak at 9% / 12% near
// the top of their batch ranges but stay below ~4% overall.
#include <string>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace cannikin;
  using namespace cannikin::bench;

  experiments::print_banner("Table 6: overhead analysis of Cannikin");

  experiments::TablePrinter table({"dataset", "model", "max overhead",
                                   "overall overhead", "epochs",
                                   "avg solves/epoch"});

  std::vector<std::string> measured;
  double cifar_max = 0.0, cifar_overall = 0.0;
  double imagenet_overall = 1.0;
  for (const auto& workload : workloads::registry()) {
    sim::ClusterJob job(sim::cluster_b(), workload.profile,
                        sim::NoiseConfig{}, 17);
    experiments::CannikinSystem system(job.size(), caps_of(job), workload.b0,
                                       workload.max_total_batch);
    experiments::HarnessOptions options;
    options.max_epochs = 800;
    const auto trace =
        experiments::run_to_target(job, workload, system, options);

    double max_overhead = 0.0;
    double overhead_sum = 0.0;
    double time_sum = 0.0;
    for (const auto& row : trace.epochs) {
      const double fraction =
          row.overhead_seconds / (row.overhead_seconds + row.epoch_seconds);
      max_overhead = std::max(max_overhead, fraction);
      overhead_sum += row.overhead_seconds;
      time_sum += row.overhead_seconds + row.epoch_seconds;
    }
    const double overall = overhead_sum / time_sum;

    auto fmt_pct = [](double v) {
      if (v < 0.01) return std::string("<1%");
      return experiments::TablePrinter::fmt(100 * v, 1) + "%";
    };
    const double avg_solves =
        trace.epochs.empty()
            ? 0.0
            : static_cast<double>(trace.linear_solves) /
                  static_cast<double>(trace.epochs.size());
    table.add_row({workload.dataset, workload.model, fmt_pct(max_overhead),
                   fmt_pct(overall), std::to_string(trace.epochs.size()),
                   experiments::TablePrinter::fmt(avg_solves, 1)});
    if (!trace.epochs.empty() && trace.linear_solves > 0) {
      const double per_epoch_us =
          1e6 * trace.planning_seconds /
          static_cast<double>(trace.epochs.size());
      const double per_solve_us =
          1e6 * trace.planning_seconds /
          static_cast<double>(trace.linear_solves);
      measured.push_back(
          "  " + workload.dataset + ": " +
          experiments::TablePrinter::fmt(per_epoch_us, 1) +
          " us/epoch measured, " +
          experiments::TablePrinter::fmt(per_solve_us, 2) +
          " us/solve measured");
    }

    if (workload.name == "cifar10") {
      cifar_max = max_overhead;
      cifar_overall = overall;
    }
    if (workload.name == "imagenet") imagenet_overall = overall;
  }
  table.print();

  std::printf(
      "\nMeasured planning wall clock (varies run to run; the table charges "
      "%.1f us/solve):\n",
      experiments::kPlanningSecondsPerSolve * 1e6);
  for (const auto& line : measured) std::printf("%s\n", line.c_str());

  std::printf(
      "\nNote: the paper's planner runs in Python inside AdaptDL; this\n"
      "reproduction's C++ solver is orders of magnitude faster, so the\n"
      "modeled reconfiguration cost (data-index + per-node round trips)\n"
      "dominates the overhead, preserving the table's *shape*: overhead\n"
      "is only visible on the small fast-epoch workloads.\n");
  shape_check(imagenet_overall < 0.01,
              "medium/large workloads have <1% overall overhead");
  shape_check(cifar_max > 0.01,
              "CIFAR-10 shows visible per-epoch overhead near the top of "
              "the batch range");
  shape_check(cifar_overall < 0.05,
              "CIFAR-10 overall overhead stays small (paper: 2.7%)");
  return 0;
}
