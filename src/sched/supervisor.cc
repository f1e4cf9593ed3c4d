#include "sched/supervisor.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace cannikin::sched {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TrainingSupervisor::TrainingSupervisor(const workloads::Workload* workload,
                                       sim::ClusterSpec full_cluster,
                                       sim::NoiseConfig noise,
                                       std::uint64_t seed,
                                       SupervisorOptions options,
                                       bool use_model_bank)
    : workload_(workload),
      full_cluster_(std::move(full_cluster)),
      noise_(noise),
      seed_(seed),
      use_model_bank_(use_model_bank),
      options_(std::move(options)),
      obs_(options_.obs.for_rank(obs::kSupervisorTid)),
      store_(options_.checkpoint_dir, options_.keep_last) {
  if (options_.max_restore_attempts < 1) {
    throw std::invalid_argument(
        "TrainingSupervisor: max_restore_attempts must be >= 1");
  }
  // Corrupt checkpoints skipped during restore show up as
  // sched.checkpoint.skipped_corrupt on the supervisor's row.
  store_.set_scope(obs_);
}

void TrainingSupervisor::start(const std::vector<int>& allocation) {
  if (job_ != nullptr) {
    throw std::logic_error("TrainingSupervisor: already started");
  }
  job_ = std::make_unique<ElasticCannikinJob>(workload_, full_cluster_, noise_,
                                              seed_, use_model_bank_);
  job_->set_allocation(allocation);
  if (obs_.tracing()) obs_.thread_name("supervisor");
  // Epoch-0 checkpoint: a crash in the very first epoch still has
  // something to restore from.
  checkpoint_now();
}

ElasticCannikinJob& TrainingSupervisor::job() {
  if (job_ == nullptr) {
    throw std::logic_error("TrainingSupervisor: no live job");
  }
  return *job_;
}

const ElasticCannikinJob& TrainingSupervisor::job() const {
  if (job_ == nullptr) {
    throw std::logic_error("TrainingSupervisor: no live job");
  }
  return *job_;
}

double TrainingSupervisor::checkpoint_now() {
  obs::SpanGuard span;
  if (obs_.tracing()) {
    span = obs_.span("sched", "checkpoint_write",
                     obs::ArgList().add("epochs", job().epochs_run()));
  }
  const auto t0 = std::chrono::steady_clock::now();
  store_.save(job().make_checkpoint());
  const double elapsed = seconds_since(t0);
  span.close();
  ++stats_.checkpoints_written;
  stats_.checkpoint_bytes = store_.bytes_written();
  stats_.checkpoint_write_seconds += elapsed;
  if (obs_.metrics() != nullptr) {
    obs_.counter_add("sched.checkpoints_written", 1.0);
    obs_.observe("sched.checkpoint_write_us", elapsed * 1e6);
  }
  epochs_since_checkpoint_ = 0;
  last_checkpoint_epochs_ = job().epochs_run();
  return elapsed;
}

double TrainingSupervisor::note_epoch_committed() {
  ++epochs_since_checkpoint_;
  if (options_.checkpoint_every_epochs > 0 &&
      epochs_since_checkpoint_ >= options_.checkpoint_every_epochs) {
    return checkpoint_now();
  }
  return 0.0;
}

void TrainingSupervisor::preempt() {
  if (job_ == nullptr) {
    throw std::logic_error("TrainingSupervisor: preempt without a live job");
  }
  // Deliberately NO checkpoint here: a preemption can strike mid-epoch,
  // when in-memory state is ahead of what the scheduler has committed.
  // The job restarts from the last durable checkpoint; work since then
  // is rolled back and accounted below.
  const int lost = std::max(0, job_->epochs_run() - last_checkpoint_epochs_);
  stats_.epochs_lost_to_preemption += lost;
  ++stats_.preemptions;

  RecoveryReport report;
  report.epoch = job_->epochs_run();
  report.preemption = true;
  preemption_reports_.push_back(report);

  if (obs_.tracing()) {
    obs_.instant("sched", "preempt",
                 obs::ArgList()
                     .add("epochs", job_->epochs_run())
                     .add("epochs_rolled_back", lost));
  }
  if (obs_.metrics() != nullptr) {
    obs_.counter_add("sched.preemptions", 1.0);
    obs_.counter_add("sched.epochs_lost_to_preemption",
                     static_cast<double>(lost));
  }
  job_.reset();
  preempted_ = true;
}

double TrainingSupervisor::resume(const std::vector<int>& allocation) {
  if (!preempted_ || job_ != nullptr) {
    throw std::logic_error("TrainingSupervisor: resume without a preemption");
  }
  obs::SpanGuard span;
  if (obs_.tracing()) {
    span = obs_.span("sched", "preemption_resume",
                     obs::ArgList().add("nodes",
                                        static_cast<int>(allocation.size())));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<Checkpoint> ckpt = store_.load_latest();
  if (!ckpt.has_value()) {
    throw std::runtime_error("TrainingSupervisor: no usable checkpoint in " +
                             store_.dir());
  }
  auto job = std::make_unique<ElasticCannikinJob>(workload_, full_cluster_,
                                                  noise_, seed_,
                                                  use_model_bank_);
  job->restore_to_allocation(*ckpt, allocation);
  const double elapsed = seconds_since(t0);
  span.close();

  stats_.preemption_restore_seconds += elapsed;
  if (!preemption_reports_.empty()) {
    RecoveryReport& report = preemption_reports_.back();
    report.warm = job->warm_reallocations() > ckpt->warm_reallocations;
    report.overhead_seconds += elapsed;
  }
  if (obs_.metrics() != nullptr) {
    obs_.observe("sched.preemption_restore_us", elapsed * 1e6);
  }
  job_ = std::move(job);
  epochs_since_checkpoint_ = 0;
  last_checkpoint_epochs_ = ckpt->epochs;
  preempted_ = false;
  return elapsed;
}

bool TrainingSupervisor::handle_crash(const sim::FaultEvent& event, int epoch,
                                      FaultRecoveryTrace* trace,
                                      double* charged_seconds) {
  if (std::find(dead_nodes_.begin(), dead_nodes_.end(), event.node) ==
      dead_nodes_.end()) {
    dead_nodes_.push_back(event.node);
  }
  // The crash takes the whole training process down with it: every
  // epoch since the last checkpoint is lost.
  const int epochs_before = job_ != nullptr ? job_->epochs_run() : 0;
  job_.reset();

  std::string last_error = "unknown";
  double backoff = options_.backoff_initial_seconds;
  for (int attempt = 1; attempt <= options_.max_restore_attempts; ++attempt) {
    ++stats_.restore_attempts;
    obs::SpanGuard restore_span;
    if (obs_.tracing()) {
      restore_span = obs_.span("sched", "restore",
                               obs::ArgList()
                                   .add("epoch", epoch)
                                   .add("node", event.node)
                                   .add("attempt", attempt));
    }
    if (obs_.metrics() != nullptr) {
      obs_.counter_add("sched.restore_attempts", 1.0);
    }
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (restore_fault_hook_) restore_fault_hook_(attempt);
      std::optional<Checkpoint> ckpt = store_.load_latest();
      if (!ckpt.has_value()) {
        throw std::runtime_error("no usable checkpoint in " + store_.dir());
      }
      auto job = std::make_unique<ElasticCannikinJob>(
          workload_, full_cluster_, noise_, seed_, use_model_bank_);
          job->restore_from_checkpoint(*ckpt, dead_nodes_);
      const double restore_seconds = seconds_since(t0);

      ++stats_.restores;
      stats_.restore_seconds += restore_seconds;
      stats_.epochs_lost_to_rollback +=
          std::max(0, epochs_before - ckpt->epochs);
      if (obs_.metrics() != nullptr) {
        obs_.counter_add("sched.restores", 1.0);
        obs_.observe("sched.restore_us", restore_seconds * 1e6);
        obs_.counter_add(
            "sched.epochs_lost_to_rollback",
            static_cast<double>(std::max(0, epochs_before - ckpt->epochs)));
      }
      job_ = std::move(job);
      epochs_since_checkpoint_ = 0;
      last_checkpoint_epochs_ = ckpt->epochs;
      *charged_seconds += restore_seconds;

      RecoveryReport report;
      report.epoch = epoch;
      report.event = event;
      // Warm iff the restored controller skipped the bootstrap epochs
      // (bank or learned-state coverage bumped the counter past the
      // checkpointed value).
      report.warm = job_->warm_reallocations() > ckpt->warm_reallocations;
      report.overhead_seconds = restore_seconds;
      trace->recoveries.push_back(std::move(report));
      return true;
    } catch (const std::exception& err) {
      stats_.restore_seconds += seconds_since(t0);
      last_error = err.what();
      if (attempt < options_.max_restore_attempts) {
        // Exponential backoff before the next attempt; charged as
        // simulated time, not slept.
        stats_.backoff_seconds += backoff;
        *charged_seconds += backoff;
        if (obs_.metrics() != nullptr) {
          obs_.counter_add("sched.backoff_seconds", backoff);
        }
        backoff *= options_.backoff_multiplier;
      }
    }
  }
  stats_.outcome = SupervisorOutcome::kGaveUp;
  stats_.give_up_reason = "restore failed after " +
                          std::to_string(options_.max_restore_attempts) +
                          " attempts: " + last_error;
  if (obs_.tracing()) {
    obs_.instant("sched", "give_up",
                 obs::ArgList().add("epoch", epoch).add("reason",
                                                        stats_.give_up_reason));
  }
  return false;
}

FaultRecoveryTrace TrainingSupervisor::run(const sim::FaultInjector& injector,
                                           int max_epochs) {
  return run_with_faults(*this, injector, max_epochs);
}

FaultRecoveryTrace run_with_faults(TrainingSupervisor& supervisor,
                                   const sim::FaultInjector& injector,
                                   int max_epochs) {
  if (!supervisor.has_job()) {
    throw std::logic_error("run_with_faults: supervisor not started");
  }
  const SupervisorOptions& options = supervisor.options_;
  FaultRecoveryTrace trace;
  const double target = supervisor.job().workload().target_progress();
  // In-process recoveries already recorded before this run are not
  // re-reported; only events from this run land in the trace.
  std::size_t report_watermark = supervisor.job().recoveries().size();
  bool gave_up = false;

  for (int epoch = 0; epoch < max_epochs && !gave_up; ++epoch) {
    std::string events;
    double charged_seconds = 0.0;
    for (const auto& event : injector.due(epoch)) {
      if (!events.empty()) events += "; ";
      events += event.describe();

      const obs::Scope& obs = supervisor.obs_;
      if (obs.tracing()) {
        obs.instant("sched",
                    event.kind == sim::FaultKind::kNodeRecover ? "rejoin"
                                                               : "fault",
                    obs::ArgList()
                        .add("epoch", epoch)
                        .add("node", event.node)
                        .add("kind", sim::fault_kind_name(event.kind)));
      }
      if (obs.metrics() != nullptr) {
        obs.counter_add(event.kind == sim::FaultKind::kNodeRecover
                            ? "sched.rejoins"
                            : "sched.faults",
                        1.0);
        if (event.kind == sim::FaultKind::kNetworkPartition) {
          obs.counter_add(event.severity >= 1.0 ? "sched.partition_heals"
                                                : "sched.partition_shrinks",
                          1.0);
        }
      }

      if (event.kind == sim::FaultKind::kCheckpointCorrupt) {
        // Storage rot: damage the newest checkpoint on disk. The next
        // restore exercises the CRC-skip path (load_latest falls back
        // to the previous good file and counts the skip).
        const std::string damaged = supervisor.store().flip_bit_in_latest(
            static_cast<std::uint64_t>(epoch) * 131 + 17);
        ++supervisor.stats_.checkpoint_corruptions;
        if (obs.tracing()) {
          obs.instant("sched", "checkpoint_corrupt",
                      obs::ArgList().add("epoch", epoch).add(
                          "path", damaged.empty() ? "<none>" : damaged));
        }
        if (obs.metrics() != nullptr) {
          obs.counter_add("sched.checkpoint.corrupted", 1.0);
        }
        continue;
      }
      if (event.kind == sim::FaultKind::kNodeCrash &&
          options.crash_policy == CrashPolicy::kCheckpointRestore) {
        if (!supervisor.handle_crash(event, epoch, &trace, &charged_seconds)) {
          gave_up = true;
          break;
        }
        report_watermark = supervisor.job().recoveries().size();
        continue;
      }
      if (event.kind == sim::FaultKind::kNodeCrash) {
        // kDiscardEpoch: the job survives in process (PR 1 semantics),
        // but the node is still down until a kNodeRecover event.
        if (std::find(supervisor.dead_nodes_.begin(),
                      supervisor.dead_nodes_.end(),
                      event.node) == supervisor.dead_nodes_.end()) {
          supervisor.dead_nodes_.push_back(event.node);
        }
      } else if (event.kind == sim::FaultKind::kNodeRecover) {
        supervisor.dead_nodes_.erase(
            std::remove(supervisor.dead_nodes_.begin(),
                        supervisor.dead_nodes_.end(), event.node),
            supervisor.dead_nodes_.end());
      }
      supervisor.job().apply_fault(event);
      // Copy the report the in-process fault path just produced.
      const auto& job_reports = supervisor.job().recoveries();
      for (std::size_t i = report_watermark; i < job_reports.size(); ++i) {
        trace.recoveries.push_back(job_reports[i]);
      }
      report_watermark = job_reports.size();
    }
    if (gave_up) {
      // Record the aborted epoch so the trace shows where training
      // stopped and what the failed restores cost.
      FaultEpochRow row;
      row.epoch = epoch;
      row.epoch_seconds = charged_seconds;
      row.events = std::move(events);
      trace.total_seconds += charged_seconds;
      trace.rows.push_back(std::move(row));
      break;
    }

    ElasticCannikinJob& job = supervisor.job();
    const double progress_before = job.progress_fraction();
    // Measured restore + backoff cost is billed to this epoch: the
    // throughput dip in the trace is the real restart overhead.
    const double epoch_seconds = job.run_epoch() + charged_seconds;

    FaultEpochRow row;
    row.epoch = epoch;
    row.num_nodes = static_cast<int>(job.allocation().size());
    row.epoch_seconds = epoch_seconds;
    row.progress = job.progress_fraction();
    row.throughput = epoch_seconds > 0.0
                         ? (row.progress - progress_before) * target /
                               epoch_seconds
                         : 0.0;
    row.events = std::move(events);
    trace.total_seconds += epoch_seconds;
    trace.rows.push_back(std::move(row));

    if (job.done()) {
      trace.reached_target = true;
      break;
    }
    ++supervisor.epochs_since_checkpoint_;
    if (options.checkpoint_every_epochs > 0 &&
        supervisor.epochs_since_checkpoint_ >= options.checkpoint_every_epochs) {
      trace.total_seconds += supervisor.checkpoint_now();
    }
  }

  SupervisorStats& stats = supervisor.stats_;
  if (trace.reached_target) {
    stats.outcome = SupervisorOutcome::kReachedTarget;
  } else if (!gave_up) {
    stats.outcome = SupervisorOutcome::kEpochBudgetExhausted;
  }

  if (supervisor.has_job()) {
    const ElasticCannikinJob& job = supervisor.job();
    trace.crash_recoveries = job.crash_recoveries() + stats.restores;
    trace.drift_resets = job.drift_resets();
    trace.recovery_overhead_seconds =
        job.recovery_overhead_seconds() + stats.restore_seconds +
        stats.backoff_seconds;
    trace.node_rejoins = job.node_rejoins();
    trace.partition_shrinks = job.partition_shrinks();
  } else {
    trace.crash_recoveries = stats.restores;
    trace.recovery_overhead_seconds =
        stats.restore_seconds + stats.backoff_seconds;
  }
  for (const auto& report : trace.recoveries) {
    if (report.event.kind == sim::FaultKind::kNodeCrash && report.warm) {
      ++trace.warm_crash_recoveries;
    }
    if (report.event.kind == sim::FaultKind::kNodeRecover && report.warm) {
      ++trace.warm_rejoins;
    }
  }
  trace.checkpoint_corruptions = stats.checkpoint_corruptions;
  trace.checkpoints_written = stats.checkpoints_written;
  trace.restores = stats.restores;
  trace.restore_attempts = stats.restore_attempts;
  trace.epochs_lost_to_rollback = stats.epochs_lost_to_rollback;
  trace.checkpoint_write_seconds = stats.checkpoint_write_seconds;
  trace.restore_seconds = stats.restore_seconds;
  trace.backoff_seconds = stats.backoff_seconds;
  // Scheduler-initiated preemptions (fleet runs interleaved with fault
  // runs) stay visible in the trace but are flagged so
  // recovery_metrics() does not count them as fault onsets.
  for (const auto& report : supervisor.preemption_reports_) {
    trace.recoveries.push_back(report);
  }
  trace.preemptions = stats.preemptions;
  trace.preemption_restore_seconds = stats.preemption_restore_seconds;
  trace.epochs_lost_to_preemption = stats.epochs_lost_to_preemption;
  trace.gave_up = gave_up;
  return trace;
}

}  // namespace cannikin::sched
