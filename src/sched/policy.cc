#include "sched/policy.h"

#include <algorithm>
#include <stdexcept>

namespace cannikin::sched {

void JobSpec::validate() const {
  if (workload == nullptr) {
    throw std::invalid_argument("JobSpec: null workload");
  }
  if (min_nodes < 1) {
    throw std::invalid_argument("JobSpec: min_nodes must be >= 1, got " +
                                std::to_string(min_nodes));
  }
  if (!(target_fraction > 0.0) || target_fraction > 1.0) {
    throw std::invalid_argument(
        "JobSpec: target_fraction must be in (0, 1], got " +
        std::to_string(target_fraction));
  }
  if (preferred_nodes < 0) {
    throw std::invalid_argument("JobSpec: preferred_nodes must be >= 0");
  }
  if (deadline_hint_seconds < 0.0) {
    throw std::invalid_argument("JobSpec: negative deadline hint");
  }
}

const FleetJobView* FleetState::view_of(JobId id) const {
  for (const auto& view : jobs) {
    if (view.id == id) return &view;
  }
  return nullptr;
}

Allocation SchedulingPolicy::on_rebalance_tick(const FleetState& state) {
  return *state.current;
}

// ---------------------------------------------------------------- FIFO

FifoPolicy::FifoPolicy(int default_job_nodes)
    : default_job_nodes_(default_job_nodes) {
  if (default_job_nodes_ < 1) {
    throw std::invalid_argument("FifoPolicy: default_job_nodes must be >= 1");
  }
}

Allocation FifoPolicy::fill(const FleetState& state) const {
  Allocation target = *state.current;  // running jobs are never touched
  std::vector<int> free = target.free_nodes();
  for (const auto& view : state.jobs) {  // arrival order
    if (target.size_of(view.id) > 0) continue;  // running
    int want = view.spec->preferred_nodes > 0 ? view.spec->preferred_nodes
                                              : default_job_nodes_;
    want = std::max(want, view.spec->min_nodes);
    want = std::min(want, state.cluster->size());
    if (static_cast<int>(free.size()) < want) break;  // head-of-line block
    target.assign(view.id,
                  {free.begin(), free.begin() + static_cast<long>(want)});
    free.erase(free.begin(), free.begin() + static_cast<long>(want));
  }
  return target;
}

Allocation FifoPolicy::on_job_arrival(const FleetState& state, JobId) {
  return fill(state);
}

Allocation FifoPolicy::on_job_finish(const FleetState& state, JobId) {
  return fill(state);
}

// ---------------------------------------------- static partitions

StaticPartitionPolicy::StaticPartitionPolicy(int num_nodes,
                                             int num_partitions) {
  if (num_nodes < 1 || num_partitions < 1 || num_partitions > num_nodes) {
    throw std::invalid_argument(
        "StaticPartitionPolicy: need 1 <= num_partitions <= num_nodes");
  }
  partitions_.resize(static_cast<std::size_t>(num_partitions));
  for (int node = 0; node < num_nodes; ++node) {
    partitions_[static_cast<std::size_t>(node * num_partitions / num_nodes)]
        .push_back(node);
  }
}

Allocation StaticPartitionPolicy::fill(const FleetState& state) const {
  Allocation target = *state.current;
  for (const auto& view : state.jobs) {  // arrival order
    if (target.size_of(view.id) > 0) continue;  // running
    bool placed = false;
    for (const auto& partition : partitions_) {
      if (static_cast<int>(partition.size()) < view.spec->min_nodes) continue;
      const bool all_free =
          std::all_of(partition.begin(), partition.end(), [&](int node) {
            return target.job_of(node) == kNoJob;
          });
      if (!all_free) continue;
      target.assign(view.id, partition);
      placed = true;
      break;
    }
    if (!placed) break;  // FIFO on partitions: queue behind the head
  }
  return target;
}

Allocation StaticPartitionPolicy::on_job_arrival(const FleetState& state,
                                                 JobId) {
  return fill(state);
}

Allocation StaticPartitionPolicy::on_job_finish(const FleetState& state,
                                                JobId) {
  return fill(state);
}

// ------------------------------------------------- goodput-greedy

GoodputGreedyPolicy::GoodputGreedyPolicy(sim::ClusterSpec cluster)
    : scheduler_(std::move(cluster)) {}

Allocation GoodputGreedyPolicy::repack(const FleetState& state) const {
  const int n = state.cluster->size();

  // Runnable ordering: priority desc, then arrival (state.jobs is in
  // arrival order, so a stable sort on priority alone preserves it).
  std::vector<const FleetJobView*> ordered;
  ordered.reserve(state.jobs.size());
  for (const auto& view : state.jobs) ordered.push_back(&view);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FleetJobView* lhs, const FleetJobView* rhs) {
                     return lhs->spec->priority > rhs->spec->priority;
                   });

  std::vector<JobId> pinned;  // evicted-but-not-worth-it: keep their nodes
  const auto is_pinned = [&](JobId id) {
    return std::find(pinned.begin(), pinned.end(), id) != pinned.end();
  };

  // Each round either returns or pins at least one more job, so the
  // loop is bounded by the job count.
  for (std::size_t round = 0; round <= state.jobs.size(); ++round) {
    // Nodes not locked under pinned jobs.
    std::vector<int> pool;
    for (int node = 0; node < n; ++node) {
      const JobId owner = state.current->job_of(node);
      if (owner == kNoJob || !is_pinned(owner)) pool.push_back(node);
    }

    // Best-effort selection: take jobs in order while their min_nodes
    // demand still fits (jobs that do not fit are skipped, not
    // head-of-line blockers -- elastic packing backfills).
    std::vector<const FleetJobView*> selected;
    int demand = 0;
    for (const FleetJobView* view : ordered) {
      if (is_pinned(view->id)) continue;
      if (demand + view->spec->min_nodes > static_cast<int>(pool.size())) {
        continue;
      }
      selected.push_back(view);
      demand += view->spec->min_nodes;
    }

    Allocation target(n);
    if (!selected.empty()) {
      std::vector<SchedulerJobInfo> infos;
      infos.reserve(selected.size());
      for (const FleetJobView* view : selected) {
        infos.push_back(
            {view->spec->workload, view->gns, view->spec->min_nodes});
      }
      const Allocation packed = scheduler_.allocate_subset(infos, pool);
      for (std::size_t i = 0; i < selected.size(); ++i) {
        target.assign(selected[i]->id,
                      packed.nodes_of(static_cast<JobId>(i)));
      }
    }
    for (JobId id : pinned) target.assign(id, state.current->nodes_of(id));

    // Preemption guard: evicting a running job forfeits its goodput for
    // the checkpoint-restore window. Preempt only when the repack's
    // fleet-goodput gain, credited over the horizon, pays for it.
    std::vector<const FleetJobView*> evicted;
    double current_goodput = 0.0, target_goodput = 0.0, loss = 0.0;
    for (const auto& view : state.jobs) {
      const auto current_nodes = state.current->nodes_of(view.id);
      const auto target_nodes = target.nodes_of(view.id);
      const SchedulerJobInfo info{view.spec->workload, view.gns,
                                  view.spec->min_nodes};
      const double gp_current =
          current_nodes.empty()
              ? 0.0
              : scheduler_.estimated_goodput(info, current_nodes);
      const double gp_target =
          target_nodes.empty()
              ? 0.0
              : scheduler_.estimated_goodput(info, target_nodes);
      current_goodput += gp_current;
      target_goodput += gp_target;
      if (!current_nodes.empty() && target_nodes.empty()) {
        evicted.push_back(&view);
        loss += gp_current * state.preemption_cost_seconds;
      }
    }
    if (evicted.empty()) return target;
    if ((target_goodput - current_goodput) * kPreemptionHorizonSeconds >
        loss) {
      return target;
    }
    for (const FleetJobView* view : evicted) pinned.push_back(view->id);
  }
  return *state.current;  // fixpoint guard; unreachable in practice
}

Allocation GoodputGreedyPolicy::on_job_arrival(const FleetState& state,
                                               JobId) {
  return repack(state);
}

Allocation GoodputGreedyPolicy::on_job_finish(const FleetState& state,
                                              JobId) {
  return repack(state);
}

Allocation GoodputGreedyPolicy::on_rebalance_tick(const FleetState& state) {
  return repack(state);
}

}  // namespace cannikin::sched
