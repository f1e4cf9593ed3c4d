#include "sched/fault_recovery.h"

#include <algorithm>

namespace cannikin::sched {

std::vector<RecoveryMetric> recovery_metrics(const FaultRecoveryTrace& trace,
                                             double threshold, int horizon) {
  std::vector<RecoveryMetric> metrics;
  const auto& rows = trace.rows;
  const int n = static_cast<int>(rows.size());

  for (const auto& report : trace.recoveries) {
    // A scheduler-initiated preemption is deliberate resource motion,
    // not a fault: it must not show up as a fault onset.
    if (report.preemption) continue;
    const bool onset = report.event.kind == sim::FaultKind::kNodeCrash ||
                       report.event.severity < 1.0;
    if (!onset) continue;
    const int e = report.epoch;
    if (e < 0 || e >= n) continue;

    // The regime holds until the next fault/recovery event changes the
    // cluster again: steady state is measured inside that window only.
    int window_end = std::min(n, e + std::max(horizon, 1));
    for (int k = e + 1; k < window_end; ++k) {
      if (!rows[static_cast<std::size_t>(k)].events.empty()) {
        window_end = k;
        break;
      }
    }

    RecoveryMetric metric;
    metric.fault_epoch = e;
    metric.event = report.event.describe();
    metric.pre_throughput =
        rows[static_cast<std::size_t>(std::max(e - 1, 0))].throughput;
    metric.dip_throughput = rows[static_cast<std::size_t>(e)].throughput;
    for (int k = e; k < window_end; ++k) {
      metric.dip_throughput = std::min(
          metric.dip_throughput, rows[static_cast<std::size_t>(k)].throughput);
    }
    const int tail = std::min(3, window_end - e);
    double steady = 0.0;
    for (int k = window_end - tail; k < window_end; ++k) {
      steady += rows[static_cast<std::size_t>(k)].throughput;
    }
    metric.steady_throughput = tail > 0 ? steady / tail : 0.0;
    // A fault in the last few epochs leaves the steady-state window
    // dominated by the dip itself, which would declare instant
    // recovery. Without at least one post-fault epoch beyond the tail
    // there is no steady state to recover *to*: report unrecovered.
    const bool window_usable = window_end - e > tail && tail >= 2;
    if (window_usable) {
      for (int k = e; k < window_end; ++k) {
        if (rows[static_cast<std::size_t>(k)].throughput >=
            threshold * metric.steady_throughput) {
          metric.epochs_to_recover = k - e;
          metric.recovered = true;
          break;
        }
      }
    }
    metrics.push_back(std::move(metric));
  }
  return metrics;
}

}  // namespace cannikin::sched
