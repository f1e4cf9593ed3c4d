// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints (a) a banner naming the paper artifact it
// regenerates, (b) the series/rows the paper plots, and (c) a short
// SHAPE CHECK line stating the qualitative property the paper's version
// of the artifact exhibits and whether this run reproduced it.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/adaptdl.h"
#include "baselines/ddp.h"
#include "baselines/hetpipe.h"
#include "baselines/lbbsp.h"
#include "experiments/cannikin_system.h"
#include "experiments/harness.h"
#include "experiments/table.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace cannikin::bench {

inline std::vector<double> caps_of(const sim::ClusterJob& job) {
  std::vector<double> caps;
  for (int i = 0; i < job.size(); ++i) caps.push_back(job.max_local_batch(i));
  return caps;
}

/// Systems compared throughout the evaluation.
enum class SystemKind { kCannikin, kAdaptDl, kLbBsp, kDdp, kHetPipe };

inline const char* system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kCannikin:
      return "cannikin";
    case SystemKind::kAdaptDl:
      return "adaptdl";
    case SystemKind::kLbBsp:
      return "lb-bsp";
    case SystemKind::kDdp:
      return "pytorch-ddp";
    case SystemKind::kHetPipe:
      return "hetpipe";
  }
  return "?";
}

inline std::unique_ptr<experiments::TrainingSystem> make_system(
    SystemKind kind, sim::ClusterJob& job,
    const workloads::Workload& workload) {
  const auto caps = caps_of(job);
  switch (kind) {
    case SystemKind::kCannikin:
      return std::make_unique<experiments::CannikinSystem>(
          job.size(), caps, workload.b0, workload.max_total_batch);
    case SystemKind::kAdaptDl:
      return std::make_unique<baselines::AdaptDlSystem>(
          job.size(), workload.b0, workload.max_total_batch, caps);
    case SystemKind::kLbBsp:
      return std::make_unique<baselines::LbBspSystem>(job.size(), workload.b0,
                                                      caps);
    case SystemKind::kDdp:
      return std::make_unique<baselines::DdpSystem>(job.size(), workload.b0,
                                                    caps);
    case SystemKind::kHetPipe:
      return std::make_unique<baselines::HetPipeSystem>(&job, workload.b0);
  }
  return nullptr;
}

/// Runs one system on a fresh simulated cluster (identical seed for
/// fair comparisons) until the workload target.
inline experiments::RunTrace run_system(
    SystemKind kind, const sim::ClusterSpec& cluster,
    const workloads::Workload& workload, std::uint64_t seed,
    int max_epochs = 800) {
  sim::ClusterJob job(cluster, workload.profile, sim::NoiseConfig{}, seed);
  auto system = make_system(kind, job, workload);
  experiments::HarnessOptions options;
  options.max_epochs = max_epochs;
  return experiments::run_to_target(job, workload, *system, options);
}

inline void shape_check(bool ok, const std::string& claim) {
  std::printf("SHAPE CHECK [%s]: %s\n", ok ? "ok" : "MISMATCH",
              claim.c_str());
}

/// Machine-readable bench reporter: every measurement a bench binary
/// prints also lands in an obs::MetricsRegistry and is written out as a
/// BENCH_*.json file (a "context" object plus a flat "benchmarks" array,
/// as in the committed BENCH_obs.json), so bench trajectories accumulate as
/// files instead of scrollback. Subsystems under test record into the
/// same registry via scope(), putting their internal comm/sched metrics
/// next to the bench's own numbers in one artifact.
class BenchReport {
 public:
  explicit BenchReport(std::string executable)
      : executable_(std::move(executable)) {}

  /// Scope recording into this report's registry (no tracer); hand it
  /// to options structs to capture a subsystem's internal metrics.
  obs::Scope scope(int tid = 0) { return obs::Scope(nullptr, &registry_, tid); }

  void counter(const std::string& name, double delta) {
    registry_.counter_add(name, delta);
  }
  void gauge(const std::string& name, double value) {
    registry_.gauge_set(name, value);
  }
  void observe(const std::string& name, double value) {
    registry_.observe(name, value);
  }

  obs::MetricsRegistry& registry() { return registry_; }

  /// Writes the JSON artifact and tells the reader where it went.
  void write(const std::string& path) const {
    registry_.write_bench_json(path, executable_);
    std::printf("\nwrote %s (%zu metrics)\n", path.c_str(),
                registry_.names().size());
  }

 private:
  std::string executable_;
  obs::MetricsRegistry registry_;
};

}  // namespace cannikin::bench
