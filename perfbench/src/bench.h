// Shared pieces of the repository benchmark: the workload interface the
// runner drives, benchmark-side timing and tracing around public library
// calls, and the output digest.
//
// Nothing here reaches inside src/: every per-layer number is taken by
// timing a public call from this side, and every span is recorded by
// this side around the same calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/scope.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: derives independent per-op seeds from the run seed.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// FNV-1a over the exact bits of every value fed in. Only fields fixed
/// by the seed may be fed: a digest must read the same on every run.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Benchmark-side tracing: one span per public call, on the runner's
/// thread, tagged with the current op's trace id. Disabled (no tracer)
/// in the runs the end-to-end metrics come from.
class Spans {
 public:
  void attach(cannikin::obs::Tracer* tracer) { tracer_ = tracer; }
  void set_trace_id(std::int64_t id) { trace_id_ = id; }

  /// `layer` must be a string literal: the tracer keeps the pointer.
  cannikin::obs::SpanGuard span(const char* layer, const char* name) const {
    if (tracer_ == nullptr) return {};
    tracer_->begin(0, layer, name,
                   cannikin::obs::ArgList().add("trace_id", trace_id_));
    return cannikin::obs::SpanGuard(tracer_, 0, layer);
  }

 private:
  cannikin::obs::Tracer* tracer_ = nullptr;
  std::int64_t trace_id_ = 0;
};

/// Named per-layer samples and counts gathered from the benchmark side.
class LayerStats {
 public:
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void count(const std::string& name, double delta) { counts_[name] += delta; }
  const std::vector<double>& samples(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
  }
  double total(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  void clear() {
    samples_.clear();
    counts_.clear();
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
};

/// Collects the output-check verdicts of a run. A violation never
/// aborts the run; it makes the run's result incorrect.
class Checker {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    ++violations_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  long violations() const { return violations_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  long violations_ = 0;
  std::vector<std::string> messages_;
};

/// Per-layer metrics a workload reports from its traced phase; names
/// match BENCHMARK.json's per_layer list. Layers a workload does not
/// run are reported as 0 by the runner.
using LayerMetrics = std::map<std::string, double>;

/// One benchmark workload. The runner constructs it (set-up), then
/// calls prepare/run/finish for op indices 0, 1, 2, ... Only run() is
/// timed. Op k's inputs and outputs depend on (seed, k) alone.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: builds op k's inputs.
  virtual void prepare(long k) { (void)k; }
  /// Timed: the op itself. Throws on a typed failure.
  virtual void run(long k) = 0;
  /// Untimed: checks op k's outputs and returns its digest. Sets
  /// *failed when the op did not achieve its goal (target missed,
  /// stranded work, job unfinished).
  virtual std::uint64_t finish(long k, bool* failed) = 0;
  /// Untimed: releases op k's leftovers after a throwing run().
  virtual void abandon(long k) { (void)k; }

  /// Samples trained (real or simulated) by op k; valid after finish().
  virtual double samples(long k) const = 0;

  /// Number of input classes the op sequence cycles through: op k runs
  /// class k mod input_classes(), and every op of one class does the same
  /// work. The runner times each class by its fastest op.
  virtual long input_classes() const = 0;

  /// CPUs one op may use at once; the runner pins each op to this many
  /// of the allowed CPUs.
  virtual int cpus_per_op() const { return 1; }

  /// Called once after the timed phases: whole-run checks (loss falls,
  /// backend parity, ...). May run further untimed ops.
  virtual void final_checks() {}

  /// Damages one output of the op most recently run, so the self-test
  /// can confirm the check rejects it.
  virtual void corrupt() = 0;

  /// Per-layer metrics from `stats` (gathered during the traced phase).
  virtual LayerMetrics layer_metrics(const LayerStats& stats,
                                     double ops) const = 0;

  Checker& checker() { return checker_; }
  LayerStats& stats() { return stats_; }
  Spans& spans() { return spans_; }

 protected:
  Checker checker_;
  LayerStats stats_;
  Spans spans_;
};

std::unique_ptr<Workload> make_sim_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_real_train(std::uint64_t seed);
std::unique_ptr<Workload> make_virtual_scale(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_trace(std::uint64_t seed,
                                           const std::string& work_dir);

/// Times a call into a layer from the benchmark side, with a span
/// around it when tracing.
template <typename F>
auto timed(const Spans& spans, const char* layer, const char* name,
           double* seconds, F&& fn) {
  const auto guard = spans.span(layer, name);
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *seconds = seconds_since(start);
  } else {
    auto out = fn();
    *seconds = seconds_since(start);
    return out;
  }
}

}  // namespace perfbench
