#include "sched/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "common/logging.h"
#include "common/rng.h"

namespace cannikin::sched {

namespace {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const int n = static_cast<int>(sorted.size());
  const int idx = std::min(
      n - 1, std::max(0, static_cast<int>(std::ceil(p * n)) - 1));
  return sorted[static_cast<std::size_t>(idx)];
}

}  // namespace

std::vector<JobArrival> poisson_arrivals(std::vector<JobSpec> specs,
                                         double mean_interarrival_seconds,
                                         std::uint64_t seed) {
  if (mean_interarrival_seconds <= 0.0) {
    throw std::invalid_argument(
        "poisson_arrivals: mean inter-arrival must be positive");
  }
  Rng rng(seed);
  std::exponential_distribution<double> gap(1.0 / mean_interarrival_seconds);
  std::vector<JobArrival> trace;
  trace.reserve(specs.size());
  double t = 0.0;
  for (auto& spec : specs) {
    t += gap(rng.engine());
    trace.push_back({std::move(spec), t});
  }
  return trace;
}

std::vector<std::pair<std::string, double>> FleetResult::metrics() const {
  int started = 0;
  int reallocations = 0, warm = 0, epochs = 0;
  for (const auto& job : jobs) {
    if (job.start_time >= 0.0) ++started;
    reallocations += job.reallocations;
    warm += job.warm_reallocations;
    epochs += job.epochs;
  }
  return {
      {"jobs", static_cast<double>(jobs.size())},
      {"completed_jobs", static_cast<double>(completed_jobs)},
      {"started_jobs", static_cast<double>(started)},
      {"makespan_seconds", makespan},
      {"mean_jct_seconds", mean_jct},
      {"p50_jct_seconds", p50_jct},
      {"p90_jct_seconds", p90_jct},
      {"p99_jct_seconds", p99_jct},
      {"mean_queueing_delay_seconds", mean_queueing_delay},
      {"fleet_goodput_samples_per_second", fleet_goodput},
      {"total_epochs", static_cast<double>(epochs)},
      {"reallocations", static_cast<double>(reallocations)},
      {"warm_reallocations", static_cast<double>(warm)},
      {"preemptions", static_cast<double>(preemptions)},
      {"preemption_overhead_seconds", preemption_overhead_seconds},
      {"epochs_lost_to_preemption",
       static_cast<double>(epochs_lost_to_preemption)},
      {"checkpoints_written", static_cast<double>(checkpoints_written)},
      // Wall-clock measurements: nondeterministic by nature, excluded
      // from determinism comparisons by the measured_ prefix.
      {"measured_checkpoint_write_seconds", measured_checkpoint_write_seconds},
      {"measured_restore_seconds", measured_restore_seconds},
  };
}

FleetSim::FleetSim(sim::ClusterSpec cluster,
                   std::unique_ptr<SchedulingPolicy> policy,
                   FleetOptions options)
    : cluster_(std::move(cluster)),
      policy_(std::move(policy)),
      options_(std::move(options)),
      allocation_(cluster_.size() > 0 ? cluster_.size() : 1) {
  if (cluster_.size() < 1) {
    throw std::invalid_argument("FleetSim: empty cluster");
  }
  if (policy_ == nullptr) {
    throw std::invalid_argument("FleetSim: null policy");
  }
  if (options_.max_epochs_per_job < 1) {
    throw std::invalid_argument(
        "FleetSim: max_epochs_per_job must be >= 1, got " +
        std::to_string(options_.max_epochs_per_job));
  }
  if (options_.rebalance_interval_seconds < 0.0 ||
      options_.preemption_cost_seconds < 0.0) {
    throw std::invalid_argument("FleetSim: negative duration option");
  }
  if (options_.checkpoint_every_epochs < 0) {
    throw std::invalid_argument(
        "FleetSim: checkpoint_every_epochs must be >= 0");
  }
  checkpoint_root_ = options_.checkpoint_root;
  if (checkpoint_root_.empty()) {
    owned_root_.emplace("cannikin-fleet");
    checkpoint_root_ = owned_root_->str();
  } else {
    // A replay must never restore a previous run's checkpoints.
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_root_, ec);
  }
}

FleetSim::~FleetSim() = default;

FleetSim::JobRecord& FleetSim::record(JobId id) {
  return jobs_.at(static_cast<std::size_t>(id));
}

JobId FleetSim::submit(JobSpec spec, double arrival_time) {
  if (ran_) {
    throw std::logic_error("FleetSim::submit: fleet already ran");
  }
  spec.validate();
  if (spec.min_nodes > cluster_.size()) {
    throw std::invalid_argument(
        "FleetSim::submit: job min_nodes " + std::to_string(spec.min_nodes) +
        " exceeds cluster size " + std::to_string(cluster_.size()));
  }
  if (arrival_time < 0.0) {
    throw std::invalid_argument("FleetSim::submit: negative arrival time");
  }
  const JobId id = static_cast<JobId>(jobs_.size());
  JobRecord job;
  job.spec = std::move(spec);
  job.arrival_time = arrival_time;
  job.outcome.name =
      job.spec.name.empty() ? job.spec.workload->name : job.spec.name;
  job.outcome.workload = job.spec.workload->name;
  job.outcome.arrival_time = arrival_time;
  jobs_.push_back(std::move(job));
  queue_.push(arrival_time, Event{EventKind::kArrival, id, 0});
  return id;
}

void FleetSim::submit(const std::vector<JobArrival>& trace) {
  for (const auto& arrival : trace) submit(arrival.spec, arrival.time);
}

int FleetSim::unfinished_jobs() const {
  int n = 0;
  for (const auto& job : jobs_) {
    if (job.state != JobState::kDone) ++n;
  }
  return n;
}

FleetState FleetSim::snapshot() const {
  FleetState state;
  state.cluster = &cluster_;
  state.current = &allocation_;
  state.now = now_;
  state.preemption_cost_seconds = options_.preemption_cost_seconds;

  std::vector<JobId> admitted;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobRecord& job = jobs_[i];
    if (job.state == JobState::kPending || job.state == JobState::kDone) {
      continue;
    }
    admitted.push_back(static_cast<JobId>(i));
  }
  std::sort(admitted.begin(), admitted.end(), [&](JobId lhs, JobId rhs) {
    const double lt = jobs_[static_cast<std::size_t>(lhs)].arrival_time;
    const double rt = jobs_[static_cast<std::size_t>(rhs)].arrival_time;
    if (lt != rt) return lt < rt;
    return lhs < rhs;
  });
  for (JobId id : admitted) {
    const JobRecord& job = jobs_[static_cast<std::size_t>(id)];
    FleetJobView view;
    view.id = id;
    view.spec = &job.spec;
    view.arrival_time = job.arrival_time;
    view.progress =
        std::min(job.committed_progress / job.spec.target_fraction, 1.0);
    view.gns = job.committed_gns;
    view.started = job.outcome.start_time >= 0.0;
    view.epochs = job.committed_epochs;
    state.jobs.push_back(view);
  }
  return state;
}

void FleetSim::consult_policy(const FleetState& state, EventKind trigger,
                              JobId subject) {
  const bool metrics = options_.obs.metrics() != nullptr;
  std::chrono::steady_clock::time_point start;
  if (metrics) start = std::chrono::steady_clock::now();
  Allocation target =
      trigger == EventKind::kArrival ? policy_->on_job_arrival(state, subject)
      : trigger == EventKind::kEpochEnd
          ? policy_->on_job_finish(state, subject)
          : policy_->on_rebalance_tick(state);
  if (metrics) {
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    options_.obs.observe("fleet.policy_decision_us", elapsed.count());
  }
  if (target.num_nodes() != allocation_.num_nodes()) {
    throw std::logic_error("FleetSim: policy \"" + policy_->name() +
                           "\" returned an allocation for " +
                           std::to_string(target.num_nodes()) +
                           " nodes on a " +
                           std::to_string(allocation_.num_nodes()) +
                           "-node cluster");
  }
  execute_target(target);
  if (metrics) {
    const auto waiting = std::count_if(
        jobs_.begin(), jobs_.end(), [](const JobRecord& job) {
          return job.state == JobState::kQueued ||
                 job.state == JobState::kPreempted;
        });
    options_.obs.gauge_set("fleet.queue_length", static_cast<double>(waiting));
  }
}

void FleetSim::execute_target(const Allocation& target) {
  const AllocationDelta delta = allocation_.diff(target);
  if (delta.empty()) return;
  for (const auto& change : delta.changes) {
    const JobRecord& job = record(change.job);
    if (job.state == JobState::kPending) {
      throw std::logic_error("FleetSim: policy allocated to job " +
                             std::to_string(change.job) +
                             " before its arrival");
    }
    if (job.state == JobState::kDone && !change.after.empty()) {
      throw std::logic_error("FleetSim: policy allocated to finished job " +
                             std::to_string(change.job));
    }
  }
  allocation_.apply(delta);
  // Evictions first so a migrating job's old nodes are free in the
  // bookkeeping before anyone grows onto them.
  for (const auto& change : delta.changes) {
    if (change.after.empty()) preempt_job(change.job);
  }
  for (const auto& change : delta.changes) {
    if (change.after.empty()) continue;
    const JobState state = record(change.job).state;
    if (state == JobState::kQueued) {
      start_job(change.job, change.after);
    } else if (state == JobState::kPreempted) {
      resume_job(change.job, change.after);
    } else {
      resize_job(change.job, change.after);
    }
  }
}

void FleetSim::start_job(JobId id, const std::vector<int>& nodes) {
  JobRecord& job = record(id);
  SupervisorOptions sup_options;
  sup_options.checkpoint_dir =
      (std::filesystem::path(checkpoint_root_) / ("job_" + std::to_string(id)))
          .string();
  sup_options.checkpoint_every_epochs = options_.checkpoint_every_epochs;
  job.supervisor = std::make_unique<TrainingSupervisor>(
      job.spec.workload, cluster_, options_.noise,
      options_.seed + 977 * static_cast<std::uint64_t>(id),
      std::move(sup_options), options_.use_model_bank);
  job.supervisor->start(nodes);
  job.state = JobState::kRunning;
  job.outcome.start_time = now_;
  job.outcome.queueing_delay = now_ - job.arrival_time;
  job.committed_gns = job.supervisor->job().current_gns();
}

void FleetSim::resume_job(JobId id, const std::vector<int>& nodes) {
  JobRecord& job = record(id);
  job.supervisor->resume(nodes);
  job.state = JobState::kRunning;
  // The modeled restore penalty lands on the first post-resume epoch;
  // the rolled-back progress (resume re-reads the last checkpoint) is
  // the other, emergent half of the preemption cost.
  job.pending_delay += options_.preemption_cost_seconds;
  preemption_overhead_seconds_ += options_.preemption_cost_seconds;
  const ElasticCannikinJob& live = job.supervisor->job();
  job.committed_progress = live.progress_fraction();
  job.committed_gns = live.current_gns();
  job.committed_epochs = live.epochs_run();
}

void FleetSim::preempt_job(JobId id) {
  JobRecord& job = record(id);
  if (job.state != JobState::kRunning) {
    throw std::logic_error("FleetSim: preempting job " + std::to_string(id) +
                           " which is not running");
  }
  job.supervisor->preempt();
  ++job.generation;  // any in-flight epoch-end is now stale
  job.epoch_in_flight = false;
  job.has_pending_resize = false;
  job.pending_delay = 0.0;
  job.state = JobState::kPreempted;
  ++job.outcome.preemptions;
  ++total_preemptions_;
  options_.obs.counter_add("fleet.preemptions", 1.0);
}

void FleetSim::resize_job(JobId id, const std::vector<int>& nodes) {
  JobRecord& job = record(id);
  if (job.epoch_in_flight) {
    // Mid-epoch: the reconfiguration takes effect at the boundary.
    job.pending_nodes = nodes;
    job.has_pending_resize = true;
    return;
  }
  if (job.supervisor->job().allocation() == nodes) return;
  job.supervisor->job().set_allocation(nodes);
  ++job.outcome.reallocations;
}

void FleetSim::retire_job(JobId id) {
  JobRecord& job = record(id);
  ++job.generation;
  job.epoch_in_flight = false;
  job.has_pending_resize = false;
  job.state = JobState::kDone;
  job.outcome.finish_time = now_;
  job.outcome.completion_seconds = now_ - job.arrival_time;
  job.outcome.epochs = job.committed_epochs;
  job.outcome.completed =
      job.committed_progress >= job.spec.target_fraction - 1e-12;
  job.outcome.effective_samples =
      job.committed_progress * job.spec.workload->target_progress();
  absorb_supervisor(job);
  if (allocation_.size_of(id) > 0) allocation_.release(id);
}

void FleetSim::absorb_supervisor(JobRecord& job) {
  if (job.supervisor == nullptr) return;
  job.outcome.warm_reallocations =
      job.supervisor->has_job() ? job.supervisor->job().warm_reallocations()
                                : 0;
  const SupervisorStats& stats = job.supervisor->stats();
  checkpoints_written_ += stats.checkpoints_written;
  epochs_lost_to_preemption_ += stats.epochs_lost_to_preemption;
  measured_checkpoint_seconds_ += stats.checkpoint_write_seconds;
  measured_restore_seconds_ +=
      stats.restore_seconds + stats.preemption_restore_seconds;
  options_.obs.counter_add("fleet.checkpoint_bytes",
                           static_cast<double>(stats.checkpoint_bytes));
  job.supervisor.reset();
}

void FleetSim::commit_epoch(JobId id) {
  JobRecord& job = record(id);
  job.epoch_in_flight = false;
  const ElasticCannikinJob& live = job.supervisor->job();
  job.committed_progress = live.progress_fraction();
  job.committed_gns = live.current_gns();
  job.committed_epochs = live.epochs_run();
  job.supervisor->note_epoch_committed();  // cadence checkpoint (measured)
  if (job.has_pending_resize && job.committed_progress <
                                    job.spec.target_fraction - 1e-12) {
    job.has_pending_resize = false;
    if (job.supervisor->job().allocation() != job.pending_nodes) {
      job.supervisor->job().set_allocation(job.pending_nodes);
      ++job.outcome.reallocations;
    }
  }
}

void FleetSim::dispatch_idle_jobs() {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    JobRecord& job = jobs_[i];
    if (job.state != JobState::kRunning || job.epoch_in_flight) continue;
    const double dt = job.supervisor->job().run_epoch() + job.pending_delay;
    job.pending_delay = 0.0;
    job.epoch_in_flight = true;
    ++dispatches_;
    queue_.push(now_ + dt, Event{EventKind::kEpochEnd,
                                 static_cast<JobId>(i), job.generation});
  }
}

FleetResult FleetSim::run() {
  if (ran_) throw std::logic_error("FleetSim::run: single-shot");
  if (jobs_.empty()) {
    throw std::invalid_argument("FleetSim::run: no jobs submitted");
  }
  ran_ = true;
  if (options_.rebalance_interval_seconds > 0.0) {
    queue_.push(options_.rebalance_interval_seconds,
                Event{EventKind::kRebalanceTick, kNoJob, 0});
    rebalance_scheduled_ = true;
  }
  const long dispatch_limit =
      static_cast<long>(options_.max_epochs_per_job) *
          static_cast<long>(jobs_.size()) * 8 +
      1000;

  while (!queue_.empty()) {
    const double t = queue_.next_time();
    now_ = t;
    // Drain the whole same-time batch before consulting the policy:
    // N arrivals at t=0 become one packing decision, not N partial
    // ones (and matches the legacy single-pack semantics).
    JobId last_arrival = kNoJob;
    JobId last_finish = kNoJob;
    bool tick = false;
    while (!queue_.empty() && queue_.next_time() == t) {
      const Event event = queue_.pop().second;
      switch (event.kind) {
        case EventKind::kArrival: {
          record(event.job).state = JobState::kQueued;
          last_arrival = event.job;
          break;
        }
        case EventKind::kEpochEnd: {
          JobRecord& job = record(event.job);
          if (job.generation != event.generation) break;  // aborted epoch
          commit_epoch(event.job);
          const bool reached =
              job.committed_progress >= job.spec.target_fraction - 1e-12;
          if (reached || job.committed_epochs >= options_.max_epochs_per_job) {
            if (!reached) {
              LOG_WARN << "FleetSim: job " << job.outcome.name
                       << " retired at the epoch budget";
            }
            retire_job(event.job);
            last_finish = event.job;
          }
          break;
        }
        case EventKind::kRebalanceTick: {
          rebalance_scheduled_ = false;
          tick = true;
          break;
        }
      }
    }

    if (unfinished_jobs() > 0) {
      if (last_finish != kNoJob || last_arrival != kNoJob || tick) {
        // One consultation per scheduling point; finish beats arrival
        // beats tick (every policy sees the full state either way).
        const FleetState state = snapshot();
        if (last_finish != kNoJob) {
          consult_policy(state, EventKind::kEpochEnd, last_finish);
        } else if (last_arrival != kNoJob) {
          consult_policy(state, EventKind::kArrival, last_arrival);
        } else {
          consult_policy(state, EventKind::kRebalanceTick, kNoJob);
        }
      }
      if (options_.rebalance_interval_seconds > 0.0 && !rebalance_scheduled_) {
        queue_.push(now_ + options_.rebalance_interval_seconds,
                    Event{EventKind::kRebalanceTick, kNoJob, 0});
        rebalance_scheduled_ = true;
      }
      dispatch_idle_jobs();
    }
    if (dispatches_ > dispatch_limit) {
      LOG_WARN << "FleetSim: dispatch guard tripped after " << dispatches_
               << " epochs; retiring the fleet early";
      break;
    }
  }

  // Jobs still alive (guard trip, or a policy that never placed them)
  // are retired unfinished so the result accounts for every job.
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].state == JobState::kDone) continue;
    JobRecord& job = jobs_[i];
    absorb_supervisor(job);
    job.outcome.epochs = job.committed_epochs;
    job.outcome.effective_samples =
        job.committed_progress * job.spec.workload->target_progress();
    job.state = JobState::kDone;
  }

  FleetResult result;
  result.policy = policy_->name();
  std::vector<double> jcts;
  double samples = 0.0, queueing = 0.0;
  int started = 0;
  for (auto& job : jobs_) {
    if (job.outcome.finish_time >= 0.0) {
      result.makespan = std::max(result.makespan, job.outcome.finish_time);
    }
    if (job.outcome.completed) {
      jcts.push_back(job.outcome.completion_seconds);
      ++result.completed_jobs;
    }
    if (job.outcome.start_time >= 0.0) {
      queueing += job.outcome.queueing_delay;
      ++started;
    }
    samples += job.outcome.effective_samples;
    result.jobs.push_back(std::move(job.outcome));
  }
  std::sort(jcts.begin(), jcts.end());
  for (double jct : jcts) result.mean_jct += jct;
  if (!jcts.empty()) result.mean_jct /= static_cast<double>(jcts.size());
  result.p50_jct = percentile(jcts, 0.50);
  result.p90_jct = percentile(jcts, 0.90);
  result.p99_jct = percentile(jcts, 0.99);
  if (started > 0) {
    result.mean_queueing_delay = queueing / static_cast<double>(started);
  }
  if (result.makespan > 0.0) {
    result.fleet_goodput = samples / result.makespan;
  }
  result.preemptions = total_preemptions_;
  result.preemption_overhead_seconds = preemption_overhead_seconds_;
  result.epochs_lost_to_preemption = epochs_lost_to_preemption_;
  result.checkpoints_written = checkpoints_written_;
  result.measured_checkpoint_write_seconds = measured_checkpoint_seconds_;
  result.measured_restore_seconds = measured_restore_seconds_;
  return result;
}

}  // namespace cannikin::sched
