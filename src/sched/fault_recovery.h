// Recovery trace of a supervised fault run and its analysis.
//
// sched::TrainingSupervisor::run drives an ElasticCannikinJob against a
// FaultInjector schedule and records this trace: per epoch it applies
// every due fault event (crashes shrink the allocation or restore from a
// checkpoint; stragglers and network degradation mutate the live cluster
// and leave recovery to drift detection), runs the epoch, and records
// effective throughput -- progress per simulated second, the quantity
// whose dip-and-rebound shape is the observable cost of a fault.
// recovery_metrics() reduces each fault onset to that shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/elastic_job.h"

namespace cannikin::sched {

struct FaultEpochRow {
  int epoch = 0;
  int num_nodes = 0;  ///< allocation size after this epoch's events
  double epoch_seconds = 0.0;
  double throughput = 0.0;  ///< effective samples per second this epoch
  double progress = 0.0;    ///< cumulative progress fraction
  std::string events;       ///< fault events applied before this epoch
};

enum class SupervisorOutcome {
  kReachedTarget,
  kEpochBudgetExhausted,
  kGaveUp,
};

/// Cumulative supervision counters of one TrainingSupervisor.
struct SupervisorStats {
  SupervisorOutcome outcome = SupervisorOutcome::kEpochBudgetExhausted;
  int checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< serialized bytes written
  int restores = 0;          ///< successful checkpoint restores
  int restore_attempts = 0;  ///< attempts including failures
  int epochs_lost_to_rollback = 0;
  int checkpoint_corruptions = 0;  ///< kCheckpointCorrupt events injected
  double checkpoint_write_seconds = 0.0;  ///< measured wall clock
  double restore_seconds = 0.0;           ///< measured wall clock
  double backoff_seconds = 0.0;  ///< policy waits charged to the trace
  std::string give_up_reason;

  // -- scheduler-initiated preemption (not faults) -------------------
  int preemptions = 0;
  /// Measured wall-clock cost of preemption resumes (restore path).
  double preemption_restore_seconds = 0.0;
  /// Committed epochs rolled back because a preemption struck after
  /// the last durable checkpoint.
  int epochs_lost_to_preemption = 0;
};

struct FaultRecoveryTrace {
  std::vector<FaultEpochRow> rows;
  /// Handled fault events, plus the supervisor's preemptions
  /// (RecoveryReport::preemption set), which recovery_metrics() skips.
  std::vector<RecoveryReport> recoveries;
  double total_seconds = 0.0;
  bool reached_target = false;
  /// The supervisor's counters when the run ended.
  SupervisorStats stats;

  // -- derived from the live job and the recoveries ------------------
  int crash_recoveries = 0;  ///< in-process shrinks + checkpoint restores
  int warm_crash_recoveries = 0;  ///< crashes recovered via banked models
  int drift_resets = 0;
  int node_rejoins = 0;
  int warm_rejoins = 0;  ///< re-joins warm-started from banked models
  int partition_shrinks = 0;  ///< partition onsets handled elastically
  /// Modeled in-process recovery cost + measured restore + backoff.
  double recovery_overhead_seconds = 0.0;
};

/// Per-fault recovery summary extracted from a trace.
struct RecoveryMetric {
  int fault_epoch = 0;
  std::string event;
  double pre_throughput = 0.0;     ///< throughput the epoch before
  double dip_throughput = 0.0;     ///< worst throughput after the fault
  double steady_throughput = 0.0;  ///< post-recovery steady state
  int epochs_to_recover = -1;      ///< epochs until back at steady state
  bool recovered = false;
};

/// For each fault onset (severity < 1 or crash) finds the throughput
/// dip and the number of epochs until throughput first reaches
/// `threshold` x the post-fault steady state: the mean of the last
/// rows of the window [fault, fault + horizon), truncated at the next
/// fault event. The horizon keeps slow GNS-driven batch growth late in
/// training from inflating the "steady state" the fault is judged
/// against. epochs_to_recover = -1 when the trace ends before recovery.
/// A fault landing within the last few epochs of the trace leaves too
/// small a window to estimate a steady state (the "steady state" would
/// be the dip itself); such faults are reported unrecovered rather
/// than trivially recovered-at-the-dip.
std::vector<RecoveryMetric> recovery_metrics(const FaultRecoveryTrace& trace,
                                             double threshold = 0.9,
                                             int horizon = 10);

}  // namespace cannikin::sched
