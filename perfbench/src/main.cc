// Repository benchmark runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--commit <id>] [--corrupt]
//
// Sets the workload up several times (reporting the median set-up time),
// then runs its ops back to back for --seconds of op time, and at least
// kMinRepeats ops of every input class. Only the op itself is timed;
// building its inputs and checking its outputs are not. Each input class
// is timed by its fastest op, because other tenants of a shared host only
// ever add time: ops_per_s and cpu_s_per_s are taken over one pass of
// every class's fastest op, and op_p50_ms / op_p90_ms are percentiles
// over the classes' fastest ops. Each pass over the classes runs pinned
// to the next CPU in turn, so every class is timed on every core.
//
// Outputs are checked against properties that hold for any seed, digested
// over the first kMinOps ops, and replayed from a fresh set-up to prove
// the digest depends on the seed alone.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced
// half and a traced half (benchmark-side spans around every public call)
// and prints the per-layer metrics, each layer's self time from the
// spans, and the tracing overhead. --corrupt damages one output of op 0
// and exits non-zero when the check rejects it, as it must.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr long kMinOps = 100;      // ops digested; least the measured phase runs
constexpr long kMinRepeats = 5;    // ops per input class in a timed phase
// Set-up repeats, whose median is reported: at least kMinSetups, and
// more for quick set-ups until kSetupSeconds have been spent.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 1.0;
constexpr long kReplayOps = 2;     // ops replayed from a fresh set-up
constexpr double kMaxPhaseWallSeconds = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  std::string work_dir = ".bench_build";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--commit <id>] [--corrupt]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value();
      } else if (flag == "--commit") {
        args.commit = value();
      } else if (flag == "--corrupt") {
        args.corrupt = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What one timed phase measured.
struct Phase {
  long first_op = 0;
  std::vector<double> op_seconds;
  std::vector<double> op_cpu_seconds;
  std::vector<double> op_samples;
  long attempted = 0;
  long failed = 0;

  /// Each input class's fastest op: its time, its process CPU time,
  /// and the samples it trained. Contention from other tenants of a
  /// shared host only ever adds time, so the fastest of a class's
  /// repeats is its steadiest reading.
  struct Fastest {
    std::vector<double> seconds;
    std::vector<double> cpu_seconds;
    std::vector<double> samples;
  };
  Fastest fastest(long classes, long first_op) const {
    std::map<long, std::size_t> best;
    for (std::size_t i = 0; i < op_seconds.size(); ++i) {
      const long c = (first_op + static_cast<long>(i)) % classes;
      const auto it = best.find(c);
      if (it == best.end() || op_seconds[i] < op_seconds[it->second]) {
        best[c] = i;
      }
    }
    Fastest out;
    for (const auto& [c, i] : best) {
      out.seconds.push_back(op_seconds[i]);
      out.cpu_seconds.push_back(op_cpu_seconds[i]);
      out.samples.push_back(op_samples[i]);
    }
    return out;
  }
  /// Ops (or samples) per second over one pass of every class's fastest op.
  double rate(long classes, long first_op, bool samples) const {
    const Fastest f = fastest(classes, first_op);
    double time = 0.0, work = 0.0;
    for (std::size_t i = 0; i < f.seconds.size(); ++i) {
      time += f.seconds[i];
      work += samples ? f.samples[i] : 1.0;
    }
    return time > 0.0 ? work / time : 0.0;
  }
};

/// The CPUs this process may run on, from its affinity mask at start.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> kCpus = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  return kCpus;
}

/// Pins the runner thread, and so every thread an op starts, to
/// `width` of the allowed CPUs, moving one CPU on with each pass over
/// the input classes. On a shared host one core can run at half speed
/// for a minute while the others do not, and an unpinned thread tends
/// to stay where it started; rotating makes every class's repeats visit
/// every core, so its fastest op is not hostage to one busy core.
void pin_for_pass(long pass, int width) {
  const auto& cpus = allowed_cpus();
  if (cpus.empty()) return;
  const auto n = static_cast<long>(cpus.size());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long j = 0; j < std::min<long>(width, n); ++j) {
    CPU_SET(cpus[static_cast<std::size_t>((pass + j) % n)], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

/// Runs op `*next`, `*next + 1`, ... until `seconds` of op time and
/// `min_ops` ops have accumulated. Records each op's digest by index.
Phase run_phase(Workload& w, long* next, double seconds, long min_ops,
                std::map<long, std::uint64_t>* digests,
                bool keep_layer_stats = false) {
  Phase phase;
  phase.first_op = *next;
  double op_time = 0.0;
  const auto phase_start = Clock::now();
  while ((op_time < seconds || phase.attempted < min_ops) &&
         seconds_since(phase_start) < kMaxPhaseWallSeconds) {
    const long k = (*next)++;
    pin_for_pass(k / w.input_classes(), w.cpus_per_op());
    w.spans().set_trace_id(k);
    w.prepare(k);
    bool threw = false;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    try {
      const auto op_span = w.spans().span("op", "op");
      w.run(k);
    } catch (const std::exception& e) {
      threw = true;
      w.checker().require(false, "op " + std::to_string(k) +
                                     " threw: " + e.what());
    }
    const double elapsed = seconds_since(start);
    phase.op_cpu_seconds.push_back(process_cpu_seconds() - cpu0);
    phase.op_seconds.push_back(elapsed);
    op_time += elapsed;
    ++phase.attempted;
    bool failed = threw;
    double samples = 0.0;
    if (threw) {
      w.abandon(k);
    } else {
      const std::uint64_t digest = w.finish(k, &failed);
      if (k < kMinOps) (*digests)[k] = digest;
      samples = w.samples(k);
    }
    phase.op_samples.push_back(samples);
    // Untraced phases drop layer samples as they go, so memory does not
    // grow with the number of ops run.
    if (!keep_layer_stats) w.stats().clear();
    phase.failed += failed;
  }
  return phase;
}

/// Self time per span category (the layer), from the tracer's record of
/// the runner thread: a span's duration minus its direct children's.
std::map<std::string, double> self_seconds(const cannikin::obs::Tracer& tracer) {
  struct Open {
    std::string category;
    std::int64_t start = 0;
    std::int64_t children = 0;
  };
  std::map<std::string, double> self;
  std::vector<Open> stack;
  for (const auto& event : tracer.snapshot()) {
    if (event.tid != 0) continue;
    if (event.phase == cannikin::obs::Phase::kBegin) {
      stack.push_back({event.category, event.timestamp_ns, 0});
    } else if (event.phase == cannikin::obs::Phase::kEnd && !stack.empty()) {
      const Open open = stack.back();
      stack.pop_back();
      const std::int64_t duration = event.timestamp_ns - open.start;
      self[open.category] += 1e-9 * static_cast<double>(duration - open.children);
      if (!stack.empty()) stack.back().children += duration;
    }
  }
  return self;
}

std::unique_ptr<Workload> make(const Args& args) {
  if (args.workload == "sim_sweep") return make_sim_sweep(args.seed);
  if (args.workload == "real_train") return make_real_train(args.seed);
  if (args.workload == "virtual_scale") return make_virtual_scale(args.seed);
  if (args.workload == "fleet_trace") {
    return make_fleet_trace(args.seed, args.work_dir);
  }
  usage("unknown workload " + args.workload);
}

/// Per-layer metric names and units, in BENCHMARK.json's order. Every
/// traced run reports all of them; layers the workload does not run
/// read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits{
      {"core.plan_us.p50", "us"},
      {"core.plan_us.p90", "us"},
      {"core.observe_us.p50", "us"},
      {"core.linear_solves", "count/op"},
      {"baselines.plan_us.p50", "us"},
      {"sim.harness_epoch_us.p50", "us"},
      {"sim.epochs_simulated", "count/op"},
      {"sim.run_epoch_us.p50", "us"},
      {"comm.event.round_ms.p50", "ms"},
      {"comm.event.round_ms.p90", "ms"},
      {"comm.event.events", "count/op"},
      {"comm.event.events_per_s", "1/s"},
      {"comm.thread.comm_ms_per_batch", "ms"},
      {"comm.thread.exposed_ms_per_batch", "ms"},
      {"dnn.forward_update_ms_per_batch", "ms"},
      {"dnn.backward_ms_per_batch", "ms"},
      {"dnn.unexplained_ms_per_batch", "ms"},
      {"dnn.steps", "count/op"},
      {"sched.policy_us.p50", "us"},
      {"sched.policy_us.p90", "us"},
      {"sched.policy_calls", "count/op"},
      {"sched.checkpoint_write_ms", "ms"},
      {"sched.self_ms", "ms"},
      {"sched.checkpoints_written", "count/op"},
      {"sched.preemptions", "count/op"},
      {"sched.epochs", "count/op"},
      {"obs.trace_overhead_pct", "%"},
      {"self.core_ms_per_op", "ms"},
      {"self.baselines_ms_per_op", "ms"},
      {"self.sim_ms_per_op", "ms"},
      {"self.comm_event_ms_per_op", "ms"},
      {"self.dnn_ms_per_op", "ms"},
      {"self.sched_ms_per_op", "ms"},
      {"self.sched_policy_ms_per_op", "ms"},
      {"self.unexplained_ms_per_op", "ms"},
      {"self.unexplained_pct", "%"},
  };
  return kUnits;
}

/// Span category -> self-time metric.
const std::map<std::string, std::string>& self_metric_of() {
  static const std::map<std::string, std::string> kNames{
      {"core", "self.core_ms_per_op"},
      {"baselines", "self.baselines_ms_per_op"},
      {"sim", "self.sim_ms_per_op"},
      {"comm.event", "self.comm_event_ms_per_op"},
      {"dnn", "self.dnn_ms_per_op"},
      {"sched", "self.sched_ms_per_op"},
      {"sched.policy", "self.sched_policy_ms_per_op"},
      {"op", "self.unexplained_ms_per_op"},
  };
  return kNames;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<std::pair<std::string, std::string>>& units,
                  const std::map<std::string, double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto it = values.find(units[i].first);
    out << (i ? ", " : "") << "\"" << units[i].first << "\": {\"value\": "
        << (it == values.end() ? 0.0 : it->second) << ", \"unit\": \""
        << units[i].second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "# context {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"commit\": \""
            << args.commit << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"nproc\": " << nproc << "}" << std::endl;

  if (args.corrupt) {
    auto w = make(args);
    w->prepare(0);
    w->run(0);
    w->corrupt();
    bool failed = false;
    w->finish(0, &failed);
    w->final_checks();
    const bool rejected = w->checker().violations() > 0;
    for (const auto& m : w->checker().messages()) {
      std::cout << "# check: " << m << std::endl;
    }
    std::cout << "# self-test: corrupted output "
              << (rejected ? "rejected" : "NOT rejected") << std::endl;
    print_result(!rejected, 1, failed, {}, {});
    return rejected ? 1 : 0;
  }

  std::vector<double> setups;
  double setup_total = 0.0;
  std::unique_ptr<Workload> w;
  // Set-ups rotate over the CPUs like passes of ops do; the first one,
  // before the workload is known, runs on one CPU.
  int width = 1;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (setup_total < kSetupSeconds &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    w.reset();
    pin_for_pass(static_cast<long>(setups.size()), width);
    const auto start = Clock::now();
    w = make(args);
    setups.push_back(seconds_since(start));
    setup_total += setups.back();
    width = w->cpus_per_op();
  }

  std::map<long, std::uint64_t> digests;
  long next = 0;
  const long class_ops = kMinRepeats * w->input_classes();
  std::map<std::string, double> metrics;
  Phase untraced;
  Phase traced;
  cannikin::obs::Tracer tracer;
  if (!args.trace) {
    untraced = run_phase(*w, &next, args.seconds, std::max(kMinOps, class_ops),
                         &digests);
  } else {
    // The untraced half only serves the tracing-overhead comparison.
    untraced = run_phase(*w, &next, args.seconds / 2, class_ops, &digests);
    w->spans().attach(&tracer);
    traced = run_phase(*w, &next, args.seconds / 2,
                       std::max(kMinOps, class_ops), &digests, true);
    w->spans().attach(nullptr);
  }
  // Digest over the first kMinOps ops, which every run completes.
  while (next < kMinOps) {
    run_phase(*w, &next, 0.0, kMinOps - next, &digests);
  }
  Digest digest;
  for (const auto& [k, d] : digests) digest.add(d);

  // Replay: a fresh set-up must reproduce the first ops exactly.
  {
    auto fresh = make(args);
    std::map<long, std::uint64_t> replayed;
    long k = 0;
    run_phase(*fresh, &k, 0.0, kReplayOps, &replayed);
    for (const auto& [op, d] : replayed) {
      w->checker().require(digests.count(op) && digests.at(op) == d,
                           "replay of op " + std::to_string(op) +
                               " from a fresh set-up differs");
    }
    w->checker().require(fresh->checker().violations() == 0,
                         "replayed ops failed their checks");
  }
  w->final_checks();

  const Phase& main = args.trace ? traced : untraced;
  const long attempted = untraced.attempted + traced.attempted;
  const long failed = untraced.failed + traced.failed;
  for (const auto& m : w->checker().messages()) {
    std::cout << "# check: " << m << std::endl;
  }
  std::cout << "# digest " << hex(digest.value()) << " over ops 0.."
            << kMinOps - 1 << "; op samples " << main.attempted
            << "; set-up samples " << setups.size() << std::endl;

  std::vector<std::pair<std::string, std::string>> units;
  if (!args.trace) {
    const long classes = w->input_classes();
    const auto fastest = untraced.fastest(classes, 0);
    metrics["setup_s"] = percentile(setups, 0.5);
    metrics["ops_per_s"] = untraced.rate(classes, 0, false);
    metrics["op_p50_ms"] = percentile(fastest.seconds, 0.5) * 1e3;
    metrics["op_p90_ms"] = percentile(fastest.seconds, 0.9) * 1e3;
    double fastest_seconds = 0.0, fastest_cpu = 0.0;
    for (std::size_t i = 0; i < fastest.seconds.size(); ++i) {
      fastest_seconds += fastest.seconds[i];
      fastest_cpu += fastest.cpu_seconds[i];
    }
    metrics["cpu_s_per_s"] = fastest_cpu / fastest_seconds;
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["success_frac"] =
        static_cast<double>(untraced.attempted - untraced.failed) /
        static_cast<double>(untraced.attempted);
    metrics["samples_per_s"] = untraced.rate(classes, 0, true);
    units = {{"setup_s", "s"},         {"ops_per_s", "1/s"},
             {"op_p50_ms", "ms"},      {"op_p90_ms", "ms"},
             {"cpu_s_per_s", "s/s"},   {"peak_rss_mb", "MB"},
             {"success_frac", "ratio"}, {"samples_per_s", "1/s"}};
  } else {
    const double ops = static_cast<double>(traced.attempted);
    for (const auto& [name, value] : w->layer_metrics(w->stats(), ops)) {
      metrics[name] = value;
    }
    const long classes = w->input_classes();
    metrics["obs.trace_overhead_pct"] =
        (untraced.rate(classes, untraced.first_op, false) /
             traced.rate(classes, traced.first_op, false) -
         1.0) * 100.0;
    const auto self = self_seconds(tracer);
    double op_span_total = 0.0;
    for (const auto& [category, seconds] : self) {
      op_span_total += seconds;
      const auto it = self_metric_of().find(category);
      if (it != self_metric_of().end()) {
        metrics[it->second] = seconds / ops * 1e3;
      }
    }
    const auto op_self = self.find("op");
    metrics["self.unexplained_pct"] =
        op_span_total > 0 && op_self != self.end()
            ? op_self->second / op_span_total * 100.0
            : 0.0;
    const auto dir = std::filesystem::path(args.work_dir) / "traces";
    std::filesystem::create_directories(dir);
    const auto path =
        dir / (args.workload + "-seed" + std::to_string(args.seed) + ".json");
    tracer.write_json(path.string());
    std::cout << "# trace " << path.string() << " (" << tracer.event_count()
              << " events)" << std::endl;
    units = per_layer_units();
  }
  const bool correct = w->checker().violations() == 0;
  print_result(correct, attempted, failed, units, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  // glibc gives a thread that starts while the others hold their arenas
  // an arena of its own, up to 8 per CPU, so with rank threads started
  // every epoch the arena count, and peak RSS with it, varied from run
  // to run (19-25 MB on real_train). One arena per CPU fixes it.
  mallopt(M_ARENA_MAX, static_cast<int>(
                           std::max<std::size_t>(1, perfbench::allowed_cpus().size())));
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
