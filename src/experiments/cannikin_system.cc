#include "experiments/cannikin_system.h"

namespace cannikin::experiments {

namespace {

core::ControllerOptions make_options(int initial, int maximum, bool adaptive,
                                     core::CombineMode combine,
                                     core::GnsWeighting gns) {
  core::ControllerOptions options;
  options.initial_total_batch = initial;
  options.max_total_batch = maximum;
  options.adaptive_batch = adaptive;
  options.combine_mode = combine;
  options.gns_weighting = gns;
  return options;
}

}  // namespace

CannikinSystem::CannikinSystem(int num_nodes,
                               std::vector<double> max_local_batches,
                               core::ControllerOptions options)
    : controller_(num_nodes, std::move(max_local_batches),
                  std::move(options)) {}

CannikinSystem::CannikinSystem(int num_nodes,
                               std::vector<double> max_local_batches,
                               int initial_total_batch, int max_total_batch,
                               bool adaptive, core::CombineMode combine,
                               core::GnsWeighting gns)
    : CannikinSystem(num_nodes, std::move(max_local_batches),
                     make_options(initial_total_batch, max_total_batch,
                                  adaptive, combine, gns)) {}

SystemPlan CannikinSystem::plan_epoch() {
  const core::EpochPlan plan = controller_.plan_epoch();
  SystemPlan out;
  out.total_batch = plan.total_batch;
  out.accumulation_steps = plan.accumulation_steps;
  out.local_batches = plan.local_batches;
  out.planning_seconds = plan.planning_seconds;
  out.linear_solves = plan.linear_solves;
  return out;
}

void CannikinSystem::observe_epoch(const sim::EpochObservation& obs) {
  std::vector<int> batches;
  std::vector<double> a, p, gamma, t_other, t_last;
  for (const auto& node : obs.nodes) {
    batches.push_back(node.local_batch);
    a.push_back(node.a);
    p.push_back(node.p);
    gamma.push_back(node.gamma);
    t_other.push_back(node.t_other);
    t_last.push_back(node.t_last);
  }
  controller_.observe_epoch(batches, a, p, gamma, t_other, t_last);
}

void CannikinSystem::observe_gns(double gns) {
  controller_.update_gns_value(gns);
}

}  // namespace cannikin::experiments
