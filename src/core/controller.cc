#include "core/controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace cannikin::core {

namespace {

std::vector<int> even_split(int total, const std::vector<double>& caps) {
  const auto n = caps.size();
  std::vector<double> continuous(n, static_cast<double>(total) /
                                        static_cast<double>(n));
  return round_batches(continuous, total, caps);
}

// Smallest distance, relative to the first probe, between a node's two
// bootstrap batch sizes. A line through two sizes one sample apart is
// fitted to measurement noise: at 43 and 44 samples under 4% noise the
// fit can come out flat (zero per-sample cost), and OptPerf then plans
// the node at zero samples.
constexpr double kBootstrapSpread = 0.25;

int probe_gap(int first) {
  return std::max(1, static_cast<int>(std::ceil(kBootstrapSpread * first)));
}

// How far node `w` can move from `next` in direction `dir` (+1 up, -1
// down) without leaving [1, cap] or coming closer to its first probe
// `prev` than both its gap and its current distance.
int partner_room(int next, int prev, double cap, int dir) {
  const int bound = dir > 0 ? static_cast<int>(std::min<double>(
                                  cap - next, 1 << 30))
                            : next - 1;
  const int distance = std::abs(next - prev);
  if (next == prev || (next > prev) == (dir > 0)) return std::max(bound, 0);
  return std::max(0, std::min(bound, distance - probe_gap(prev)));
}

// Moves every node whose second bootstrap probe `next` lies closer than
// probe_gap() to its first `prev` out to that gap, trading the samples
// with partners so the total stays fixed. A node no partner can cover
// keeps its Eq. (8) size; the zero-batch re-probe of model_plan() is
// the backstop for whatever fit it then gets.
void spread_probes(std::vector<int>& next, const std::vector<int>& prev,
                   const std::vector<double>& caps) {
  const std::size_t n = next.size();
  std::vector<std::pair<std::size_t, int>> takes;  // (partner, samples)
  for (std::size_t u = 0; u < n; ++u) {
    if (prev[u] <= 0) continue;
    const int gap = probe_gap(prev[u]);
    if (std::abs(next[u] - prev[u]) >= gap) continue;
    const int preferred = next[u] < prev[u] ? -1 : 1;
    for (const int dir : {preferred, -preferred}) {
      const int target = prev[u] + dir * gap;
      if (target < 1 || target > caps[u]) continue;
      // Partners move against `dir`, each by as much as it has room.
      int need = std::abs(target - next[u]);
      takes.clear();
      for (std::size_t k = 1; k < n && need > 0; ++k) {
        const std::size_t w = (u + k) % n;
        const int take =
            std::min(need, partner_room(next[w], prev[w], caps[w], -dir));
        if (take == 0) continue;
        takes.emplace_back(w, take);
        need -= take;
      }
      if (need > 0) continue;
      next[u] = target;
      for (const auto& [w, take] : takes) next[w] -= dir * take;
      break;
    }
  }
}

// A node planned at zero samples produces no observation, so a wrong
// model of it could never be corrected. Each such node that has not yet
// been observed at one sample gets one, from the largest local batch:
// the reading at that new size grounds the fit near zero, and if the
// refit still plans the node at zero, the zero stands. Returns whether
// any sample moved.
bool reprobe_starved(std::vector<int>& batches,
                     const std::vector<double>& caps,
                     const ClusterPerfModel& model) {
  bool moved = false;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i] > 0 || caps[i] < 1.0) continue;
    if (model.node_learner(static_cast<int>(i)).smallest_batch() == 1) {
      continue;
    }
    const auto largest = std::max_element(batches.begin(), batches.end());
    if (*largest < 2) break;
    --*largest;
    batches[i] = 1;
    moved = true;
  }
  return moved;
}

// Predicted optimizer-step time of the split `batches` as run: `steps`
// - 1 compute-only micro-batches plus one synchronized Eq. (7) batch,
// the cost model of OptPerfSolver::solve_accumulated.
double predicted_step_time(const OptPerfSolver& solver,
                           const std::vector<int>& batches, int steps) {
  const std::vector<double> split(batches.begin(), batches.end());
  double compute = 0.0;
  for (std::size_t i = 0; i < split.size(); ++i) {
    compute = std::max(compute, solver.models()[i].compute(split[i]));
  }
  return (steps - 1) * compute +
         predicted_batch_time(solver.models(), solver.comm(), split);
}

}  // namespace

CannikinController::CannikinController(int num_nodes,
                                       std::vector<double> max_local_batches,
                                       ControllerOptions options)
    : num_nodes_(num_nodes),
      max_local_batches_(std::move(max_local_batches)),
      options_(options),
      perf_model_(num_nodes, options.combine_mode),
      gns_(options.gns_smoothing, options.gns_weighting),
      goodput_(options.initial_total_batch > 0 ? options.initial_total_batch
                                               : 1) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("CannikinController: num_nodes must be > 0");
  }
  if (static_cast<int>(max_local_batches_.size()) != num_nodes) {
    throw std::invalid_argument("CannikinController: caps size mismatch");
  }
  if (options_.initial_total_batch <= 0 ||
      options_.max_total_batch < options_.initial_total_batch) {
    throw std::invalid_argument("CannikinController: bad batch range");
  }
  perf_model_.set_max_batches(max_local_batches_);
  perf_model_.set_drift_threshold(options_.drift_threshold);
  // Data parallelism needs at least one sample per node each batch, and
  // the Eq. (3) learner needs two distinct sizes, so the smallest total
  // batch the planner will use is 2 samples per node. The goodput
  // model's efficiency anchor stays at the user's B0 (Table 5), so the
  // statistical cost of this floor is accounted, not hidden.
  min_plan_batch_ = std::max(options_.initial_total_batch, 2 * num_nodes_);
  // The batch-size range is capped by the cluster's device memory times
  // the largest gradient-accumulation factor: beyond that, proposing a
  // total batch would silently train a smaller one than the goodput
  // model scored.
  double cap_sum = 0.0;
  for (double cap : max_local_batches_) cap_sum += cap;
  const int max_feasible = static_cast<int>(std::min<double>(
      options_.max_total_batch,
      cap_sum * std::max(options_.max_accumulation_steps, 1)));
  candidates_ = batch_size_candidates(
      min_plan_batch_, std::max(max_feasible, min_plan_batch_),
      options_.candidate_growth);
}

CannikinController::SolvedCandidate CannikinController::solve_candidate(
    const OptPerfSolver& solver, int candidate, int boundary_hint) const {
  SolvedCandidate out;
  if (static_cast<double>(candidate) <= solver.cap_sum()) {
    OptPerfResult result =
        boundary_hint >= 0 ? solver.solve_with_hint(candidate, boundary_hint)
                           : solver.solve(candidate);
    out.step_time = result.batch_time;
    out.steps = 1;
    out.boundary = result.num_compute_bottleneck;
    out.micro_batches = std::move(result.local_batches_int);
    out.solves = result.linear_solves;
    return out;
  }
  // Memory-capped: grow through gradient accumulation.
  const auto plan = solver.solve_accumulated(
      candidate, std::max(options_.max_accumulation_steps, 1));
  out.step_time = plan.step_time;
  out.steps = plan.steps;
  out.boundary = plan.micro.num_compute_bottleneck;
  out.micro_batches = plan.micro.local_batches_int;
  out.solves = plan.micro.linear_solves;
  return out;
}

EpochPlan CannikinController::plan_epoch() {
  const auto start = std::chrono::steady_clock::now();
  EpochPlan plan =
      perf_model_.ready() ? model_plan() : bootstrap_plan();
  plan.epoch = epoch_;
  plan.planning_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ++epoch_;
  last_local_batches_ = plan.local_batches;
  last_predicted_batch_time_ = plan.predicted_batch_time;
  if (options_.obs.tracing()) {
    options_.obs.thread_name("controller");
    options_.obs.instant(
        "controller", "batch_decision",
        obs::ArgList()
            .add("epoch", plan.epoch)
            .add("total_batch", plan.total_batch)
            .add("accumulation_steps", plan.accumulation_steps)
            .add("predicted_batch_time", plan.predicted_batch_time)
            .add("from_model", plan.from_model)
            .add("linear_solves", plan.linear_solves)
            .add("planning_us", plan.planning_seconds * 1e6)
            .add("cache_rebuilt", plan.cache_rebuilt));
  }
  if (options_.obs.metrics() != nullptr) {
    // Table-6-style planning overhead, accounted per plan.
    options_.obs.counter_add("controller.plans", 1.0);
    options_.obs.counter_add("controller.linear_solves",
                             static_cast<double>(plan.linear_solves));
    options_.obs.counter_add("controller.planning_seconds",
                             plan.planning_seconds);
    if (plan.cache_rebuilt) {
      options_.obs.counter_add("controller.cache_rebuilds", 1.0);
    }
    options_.obs.observe("controller.planning_us",
                         plan.planning_seconds * 1e6);
  }
  return plan;
}

EpochPlan CannikinController::bootstrap_plan() {
  EpochPlan plan;
  plan.total_batch = min_plan_batch_;
  plan.from_model = false;

  if (last_compute_times_.empty()) {
    // First epoch: no information at all; start even (as the paper's
    // experiments do, e.g. Figure 9).
    plan.local_batches = even_split(plan.total_batch, max_local_batches_);
    return plan;
  }

  // Cannikin runs on top of the adaptive engine (Figure 4): while the
  // per-node models are still unidentifiable, the engine already picks
  // the total batch by goodput using a crude one-point throughput model
  // (half fixed cost, half per-sample), exactly as AdaptDL would; only
  // the *split* comes from Eq. (8).
  if (options_.adaptive_batch && last_observed_batch_time_ > 0.0) {
    const double fixed = 0.5 * last_observed_batch_time_;
    const double per_sample =
        0.5 * last_observed_batch_time_ / std::max(last_total_batch_, 1);
    plan.total_batch = select_batch_size(
        goodput_, gns_.gns(), candidates_,
        [&](int b) { return fixed + per_sample * b; });
  }

  // Eq. (8): inverse per-sample compute time from the previous epoch.
  std::vector<double> per_sample(last_compute_times_.size());
  for (std::size_t i = 0; i < per_sample.size(); ++i) {
    const int b = std::max(last_local_batches_[i], 1);
    per_sample[i] = std::max(last_compute_times_[i], 1e-12) / b;
  }
  plan.local_batches =
      bootstrap_assignment(per_sample, plan.total_batch, max_local_batches_);

  // The linear model of Eq. (3) needs two local batch sizes per node,
  // far enough apart that noise cannot flatten the fitted line. Eq. (8)
  // can reproduce a node's previous batch, or move it by a sample (e.g.
  // a mid-speed node in a symmetric cluster); spread such nodes out.
  spread_probes(plan.local_batches, last_local_batches_, max_local_batches_);
  return plan;
}

void CannikinController::rebuild_cache(const OptPerfSolver& solver,
                                       int* solves) {
  cache_.clear();
  cache_.reserve(candidates_.size());
  int hint = -1;  // cold start; then warm from the previous candidate
  for (int candidate : candidates_) {
    const SolvedCandidate solved = solve_candidate(solver, candidate, hint);
    *solves += solved.solves;
    hint = solved.boundary;
    cache_.push_back({candidate, solved.step_time, solved.boundary,
                      solved.steps});
  }
  cache_valid_ = true;
}

EpochPlan CannikinController::model_plan() {
  EpochPlan plan;
  plan.from_model = true;

  const auto models = perf_model_.node_models();
  const auto comm = perf_model_.comm_times();
  if (!models || !comm) {
    // Should not happen when ready(); fall back defensively.
    return bootstrap_plan();
  }
  OptPerfSolver solver(*models, *comm);

  int solves = 0;
  if (!options_.adaptive_batch) {
    // Fixed-total-batch mode: only the split is optimized.
    const int fixed_total = min_plan_batch_;
    const int boundary_hint =
        cache_valid_ && !cache_.empty() ? cache_.front().boundary : -1;
    OptPerfResult result =
        boundary_hint >= 0 ? solver.solve_with_hint(fixed_total, boundary_hint)
                           : solver.solve(fixed_total);
    solves += result.linear_solves;
    cache_.assign(1, {fixed_total, result.batch_time,
                      result.num_compute_bottleneck, 1});
    cache_valid_ = true;
    plan.total_batch = fixed_total;
    plan.local_batches = result.local_batches_int;
    // A re-probe runs a split OptPerf did not choose; predict that one,
    // so the observed-vs-predicted error measures the model.
    plan.predicted_batch_time =
        reprobe_starved(plan.local_batches, max_local_batches_, perf_model_)
            ? predicted_step_time(solver, plan.local_batches, 1)
            : result.batch_time;
    plan.linear_solves = solves;
    return plan;
  }

  if (!cache_valid_) {
    rebuild_cache(solver, &solves);
    plan.cache_rebuilt = true;
  }

  // Choose the total batch size by goodput over the cached OptPerf_init
  // values with the up-to-date GNS (Section 4.5).
  const double gns = gns_.gns();
  int chosen_index = 0;
  double best_goodput = -1.0;
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    const double value =
        goodput_.goodput(gns, cache_[i].total_batch, cache_[i].batch_time);
    if (value > best_goodput) {
      best_goodput = value;
      chosen_index = static_cast<int>(i);
    }
  }
  CacheEntry& entry = cache_[static_cast<std::size_t>(chosen_index)];

  // Refresh OptPerf for the chosen candidate with the updated models,
  // warm-starting from its cached overlap state.
  SolvedCandidate solved =
      solve_candidate(solver, entry.total_batch, entry.boundary);
  solves += solved.solves;

  // The paper restarts the candidate sweep when the overlap pattern
  // changed; we additionally restart when the refreshed prediction
  // drifted appreciably from the cached OptPerf_init value -- the early
  // two-point model fits can be crude, and a stale pessimistic cache
  // entry would otherwise never be reconsidered (the solve is cheap).
  const double drift = std::abs(solved.step_time - entry.batch_time) /
                       std::max(entry.batch_time, 1e-12);
  if (solved.boundary != entry.boundary || drift > 0.05) {
    // Overlap pattern changed: the cached OptPerf_init values are stale
    // for the new regime; start over for every candidate.
    rebuild_cache(solver, &solves);
    plan.cache_rebuilt = true;
    // Re-select with fresh values.
    best_goodput = -1.0;
    for (std::size_t i = 0; i < cache_.size(); ++i) {
      const double value =
          goodput_.goodput(gns, cache_[i].total_batch, cache_[i].batch_time);
      if (value > best_goodput) {
        best_goodput = value;
        chosen_index = static_cast<int>(i);
      }
    }
    CacheEntry& fresh = cache_[static_cast<std::size_t>(chosen_index)];
    solved = solve_candidate(solver, fresh.total_batch, fresh.boundary);
    solves += solved.solves;
    fresh.batch_time = solved.step_time;
    fresh.boundary = solved.boundary;
    fresh.steps = solved.steps;
    plan.total_batch = fresh.total_batch;
  } else {
    entry.batch_time = solved.step_time;
    entry.steps = solved.steps;
    plan.total_batch = entry.total_batch;
  }

  plan.accumulation_steps = solved.steps;
  plan.local_batches = std::move(solved.micro_batches);
  plan.predicted_batch_time =
      reprobe_starved(plan.local_batches, max_local_batches_, perf_model_)
          ? predicted_step_time(solver, plan.local_batches, solved.steps)
          : solved.step_time;
  // With accumulation, the trained batch per optimizer step is the
  // micro-batch sum times the step count; rounding of the micro batch
  // can shift it a few samples from the nominal candidate, and progress
  // accounting must see the true value.
  int micro_sum = 0;
  for (int b : plan.local_batches) micro_sum += b;
  plan.total_batch = micro_sum * plan.accumulation_steps;
  plan.linear_solves = solves;
  return plan;
}

void CannikinController::observe_epoch(
    const std::vector<int>& local_batches, const std::vector<double>& a_obs,
    const std::vector<double>& p_obs, const std::vector<double>& gamma_obs,
    const std::vector<double>& t_other_obs,
    const std::vector<double>& t_last_obs) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  const auto check = [n](const char* name, std::size_t got) {
    if (got != n) {
      throw std::invalid_argument(
          "observe_epoch: " + std::string(name) + " has " +
          std::to_string(got) + " entries, expected one per node (" +
          std::to_string(n) + ")");
    }
  };
  check("local_batches", local_batches.size());
  check("a_obs", a_obs.size());
  check("p_obs", p_obs.size());
  check("gamma_obs", gamma_obs.size());
  check("t_other_obs", t_other_obs.size());
  check("t_last_obs", t_last_obs.size());
  perf_model_.observe_epoch(local_batches, a_obs, p_obs, gamma_obs,
                            t_other_obs, t_last_obs);
  last_local_batches_ = local_batches;
  last_compute_times_.resize(local_batches.size());
  last_total_batch_ = 0;
  double compute_bound = 0.0;
  double comm_bound = 0.0;
  for (std::size_t i = 0; i < local_batches.size(); ++i) {
    last_compute_times_[i] = a_obs[i] + p_obs[i];
    last_total_batch_ += local_batches[i];
    // Eq. (7) evaluated on this epoch's own observations: the achieved
    // batch time, used by the bootstrap throughput model.
    compute_bound =
        std::max(compute_bound, a_obs[i] + p_obs[i] + t_last_obs[i]);
    comm_bound = std::max(comm_bound, a_obs[i] + gamma_obs[i] * p_obs[i] +
                                          t_other_obs[i] + t_last_obs[i]);
  }
  last_observed_batch_time_ = std::max(compute_bound, comm_bound);
  if (options_.obs.tracing()) {
    options_.obs.instant(
        "controller", "model_refit",
        obs::ArgList()
            .add("predicted_batch_time", last_predicted_batch_time_)
            .add("observed_batch_time", last_observed_batch_time_)
            .add("total_batch", last_total_batch_)
            .add("model_ready", perf_model_.ready()));
  }
  if (options_.obs.metrics() != nullptr &&
      last_predicted_batch_time_ > 0.0 && last_observed_batch_time_ > 0.0) {
    options_.obs.observe(
        "controller.batch_time_rel_error",
        std::abs(last_observed_batch_time_ - last_predicted_batch_time_) /
            last_observed_batch_time_);
  }
}

void CannikinController::update_gns(const std::vector<double>& batches,
                                    const std::vector<double>& local_norm_sq,
                                    double global_norm_sq) {
  if (batches.empty() || batches.size() != local_norm_sq.size()) {
    throw std::invalid_argument(
        "update_gns: got " + std::to_string(batches.size()) +
        " batch sizes and " + std::to_string(local_norm_sq.size()) +
        " local norms; need one non-empty entry per contributing node");
  }
  gns_.update(batches, local_norm_sq, global_norm_sq);
}

void CannikinController::update_gns_value(double gns) {
  gns_.update_sample({1.0, std::max(gns, 0.0)});
}

void CannikinController::warm_start(
    const std::vector<std::optional<NodeModel>>& node_priors,
    const std::optional<CommTimes>& comm_prior, double initial_gns) {
  perf_model_.set_priors(node_priors, comm_prior);
  if (initial_gns > 0.0) update_gns_value(initial_gns);
  cache_valid_ = false;  // OptPerf_init must be built from the priors
}

std::optional<std::vector<NodeModel>> CannikinController::learned_models()
    const {
  return perf_model_.node_models();
}

std::optional<CommTimes> CannikinController::learned_comm() const {
  return perf_model_.comm_times();
}

}  // namespace cannikin::core
