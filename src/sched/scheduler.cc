#include "sched/scheduler.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/goodput.h"
#include "core/optperf.h"
#include "sim/gpu.h"
#include "sim/network.h"

namespace cannikin::sched {

GoodputScheduler::GoodputScheduler(sim::ClusterSpec cluster)
    : cluster_(std::move(cluster)) {
  if (cluster_.nodes.empty()) {
    throw std::invalid_argument("GoodputScheduler: empty cluster");
  }
  std::vector<const sim::NodeSpec*> representatives;
  node_class_.reserve(cluster_.nodes.size());
  for (const auto& node : cluster_.nodes) {
    const auto same = std::find_if(
        representatives.begin(), representatives.end(),
        [&](const sim::NodeSpec* rep) {
          return rep->gpu == node.gpu && rep->contention == node.contention &&
                 rep->host_speed == node.host_speed;
        });
    node_class_.push_back(static_cast<int>(same - representatives.begin()));
    if (same == representatives.end()) representatives.push_back(&node);
  }
}

std::size_t GoodputScheduler::KeyHash::operator()(
    const std::vector<int>& key) const {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the ids
  for (int id : key) {
    hash ^= static_cast<std::uint32_t>(id);
    hash *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>(hash);
}

GoodputScheduler::Curve GoodputScheduler::solve_curve(
    const workloads::Workload& workload,
    const std::vector<int>& node_ids) const {
  // Catalog-derived performance models for the subset.
  std::vector<core::NodeModel> models;
  models.reserve(node_ids.size());
  for (int id : node_ids) {
    const auto& node = cluster_.nodes[static_cast<std::size_t>(id)];
    const sim::NodeTruth truth =
        sim::derive_node_truth(node, workload.profile);
    models.push_back({truth.q, truth.s, truth.k, truth.m,
                      static_cast<double>(truth.max_local_batch)});
  }
  const auto schedule = sim::make_comm_schedule(
      cluster_.network, workload.profile.gradient_bytes,
      workload.profile.bucket_bytes, static_cast<int>(node_ids.size()));
  core::OptPerfSolver solver(
      models, {workload.profile.gamma, schedule.t_other, schedule.t_last});

  const int min_batch =
      std::max(workload.b0, 2 * static_cast<int>(node_ids.size()));
  const auto candidates = core::batch_size_candidates(
      min_batch, std::max(workload.max_total_batch, min_batch), 1.5);

  Curve curve;
  curve.reserve(candidates.size());
  for (int candidate : candidates) {
    const auto result = solver.solve(candidate);
    if (!result.feasible || result.batch_time <= 0.0) continue;
    curve.push_back({candidate, result.batch_time});
  }
  return curve;
}

const GoodputScheduler::Curve& GoodputScheduler::curve(
    const workloads::Workload& workload,
    const std::vector<int>& node_ids) const {
  const sim::JobProfile& profile = workload.profile;
  const CurveInputs inputs{profile.per_sample_forward,
                           profile.per_sample_load,
                           profile.fixed_forward,
                           profile.per_sample_backward,
                           profile.fixed_backward,
                           profile.gradient_bytes,
                           profile.bucket_bytes,
                           profile.gamma,
                           profile.mem_bytes_per_sample,
                           static_cast<double>(workload.b0),
                           static_cast<double>(workload.max_total_batch)};
  const auto known = std::find_if(
      workloads_.begin(), workloads_.end(), [&](const CurveInputs& seen) {
        return std::memcmp(seen.data(), inputs.data(), sizeof(inputs)) == 0;
      });
  key_.clear();
  key_.push_back(static_cast<int>(known - workloads_.begin()));
  if (known == workloads_.end()) workloads_.push_back(inputs);
  for (int id : node_ids) {
    key_.push_back(node_class_.at(static_cast<std::size_t>(id)));
  }

  const auto hit = curves_.find(key_);
  if (hit != curves_.end()) return hit->second;
  return curves_.emplace(key_, solve_curve(workload, node_ids)).first->second;
}

double GoodputScheduler::estimated_goodput(
    const SchedulerJobInfo& job, const std::vector<int>& node_ids) const {
  if (job.workload == nullptr) {
    throw std::invalid_argument("estimated_goodput: null workload");
  }
  if (node_ids.empty()) return 0.0;

  const core::GoodputModel goodput(job.workload->b0);
  double best = 0.0;
  for (const CurvePoint& point : curve(*job.workload, node_ids)) {
    best = std::max(best,
                    goodput.goodput(job.gns, point.batch, point.batch_time));
  }
  return best;
}

Allocation GoodputScheduler::allocate(
    const std::vector<SchedulerJobInfo>& jobs) const {
  std::vector<int> all(static_cast<std::size_t>(cluster_.size()));
  std::iota(all.begin(), all.end(), 0);
  return allocate_subset(jobs, all);
}

Allocation GoodputScheduler::allocate_subset(
    const std::vector<SchedulerJobInfo>& jobs,
    const std::vector<int>& node_ids) const {
  Allocation allocation(cluster_.size());
  if (jobs.empty()) return allocation;

  int demand = 0;
  for (const auto& job : jobs) {
    if (job.workload == nullptr) {
      throw std::invalid_argument("allocate: null workload");
    }
    if (job.min_nodes < 1) {
      throw std::invalid_argument("allocate: min_nodes must be >= 1, got " +
                                  std::to_string(job.min_nodes));
    }
    demand += job.min_nodes;
  }

  std::vector<int> pool = node_ids;
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  for (int id : pool) {
    if (id < 0 || id >= cluster_.size()) {
      throw std::invalid_argument("allocate: bad node id " +
                                  std::to_string(id));
    }
  }
  if (demand > static_cast<int>(pool.size())) {
    throw std::invalid_argument(
        "allocate: min_nodes demand (" + std::to_string(demand) +
        ") exceeds available nodes (" + std::to_string(pool.size()) +
        "); the policy must cap its runnable set first");
  }

  // Nodes ordered fastest-first so the seeding round hands each job a
  // strong anchor node.
  std::vector<int> order = pool;
  std::sort(order.begin(), order.end(), [&](int lhs, int rhs) {
    const auto speed = [&](int id) {
      const auto& node = cluster_.nodes[static_cast<std::size_t>(id)];
      return sim::gpu_spec(node.gpu).relative_speed * node.contention;
    };
    const double ls = speed(lhs), rs = speed(rhs);
    if (ls != rs) return ls > rs;
    return lhs < rhs;  // deterministic tie-break
  });

  std::vector<std::vector<int>> assigned(jobs.size());
  std::size_t cursor = 0;

  // Seeding: round-robin until every job has its min_nodes.
  for (std::size_t job = 0; job < jobs.size(); ++job) {
    while (static_cast<int>(assigned[job].size()) < jobs[job].min_nodes &&
           cursor < order.size()) {
      assigned[job].push_back(order[cursor++]);
    }
  }

  // Baseline goodputs for normalization (Pollux's speedup objective).
  std::vector<double> base(jobs.size());
  std::vector<double> current(jobs.size());
  for (std::size_t job = 0; job < jobs.size(); ++job) {
    base[job] = std::max(estimated_goodput(jobs[job], assigned[job]), 1e-12);
    current[job] = base[job];
  }

  // Greedy marginal assignment of the remaining nodes.
  for (; cursor < order.size(); ++cursor) {
    const int node = order[cursor];
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_job = 0;
    double best_goodput = 0.0;
    for (std::size_t job = 0; job < jobs.size(); ++job) {
      // Probe in place: the node joins the job's list for one query.
      assigned[job].push_back(node);
      const double with_node = estimated_goodput(jobs[job], assigned[job]);
      assigned[job].pop_back();
      const double gain = (with_node - current[job]) / base[job];
      if (gain > best_gain) {
        best_gain = gain;
        best_job = job;
        best_goodput = with_node;
      }
    }
    assigned[best_job].push_back(node);
    current[best_job] = best_goodput;
  }

  for (std::size_t job = 0; job < jobs.size(); ++job) {
    allocation.assign(static_cast<JobId>(job), assigned[job]);
  }
  return allocation;
}

}  // namespace cannikin::sched
