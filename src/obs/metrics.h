// MetricsRegistry: named counters, gauges and histograms with a JSON
// export that follows the repo's BENCH_*.json convention (committed
// e.g. as BENCH_obs.json: a "context" object plus a flat "benchmarks"
// array with one named entry per measurement). Every bench binary
// reports through one of these instead of hand-rolled printf, so bench
// trajectories accumulate as machine-readable files.
//
// Thread-safe: one mutex guards the maps; the hot users (trainers,
// comm engine) record a handful of values per batch, far below
// contention range. Histograms keep raw samples (capped) so percentile
// queries use the exact nearest-rank definition.
//
// Metric-name families emitted by the subsystems (all dot-separated,
// subsystem-first, so one registry's dump groups naturally):
//   comm.retry.resends / comm.retry.dropped -- point-to-point
//     retransmissions beyond first attempts, and messages whose retry
//     budget ran out (both backends; see sim::RetryPolicy);
//   sched.checkpoint.skipped_corrupt -- corrupt checkpoint files the
//     store CRC-rejected and skipped during load_latest;
//   sched.checkpoint.corrupted -- kCheckpointCorrupt faults injected;
//   sched.partition_shrinks / sched.partition_heals -- partition
//     onsets handled as elastic shrinks, and post-heal re-admissions;
//   chaos.* -- per-run chaos-harness accounting (rounds committed /
//     discarded, exclusions, rejoins, restores, typed errors) plus the
//     chaos_fuzz sweep gauges (scenarios_per_sec, exclusion_rate,
//     recovery_virtual_seconds histogram).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cannikin::obs {

class MetricsRegistry {
 public:
  /// Samples kept per histogram; once full, further samples still
  /// update count/min/max/mean but no longer shift percentiles.
  static constexpr std::size_t kMaxHistogramSamples = 1 << 16;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void counter_add(const std::string& name, double delta);
  void gauge_set(const std::string& name, double value);
  /// Records one histogram sample.
  void observe(const std::string& name, double value);

  /// Current value; 0.0 when the name was never recorded.
  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  struct HistogramSummary {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  /// Zeroed summary when the name was never observed.
  HistogramSummary histogram(const std::string& name) const;

  /// All metric names, each tagged with its kind.
  std::vector<std::pair<std::string, std::string>> names() const;

  /// BENCH_*.json-style export. Counters and gauges become entries with
  /// a "value"; histograms carry count/min/max/mean/p50/p90/p99.
  std::string to_bench_json(const std::string& executable) const;
  void write_bench_json(const std::string& path,
                        const std::string& executable) const;

 private:
  struct Histogram {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::vector<double> samples;  ///< capped at kMaxHistogramSamples
  };

  static HistogramSummary summarize(const Histogram& histogram);

  mutable std::mutex mutex_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace cannikin::obs
