// Tests for the observability layer: Chrome-trace JSON round-trips
// through the bundled parser, span discipline and timestamp ordering
// hold, histogram percentiles follow the nearest-rank definition,
// concurrent recording from many threads is race-free (tsan preset
// covers this suite), and a disabled Scope records nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/process_group.h"
#include "comm/tag_allocator.h"
#include "core/controller.h"
#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/zoo.h"
#include "experiments/cannikin_system.h"
#include "experiments/real_training.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace cannikin::obs {
namespace {

// ----------------------------------------------------------------- trace

TEST(ObsTrace, ExportsValidChromeTraceJson) {
  Tracer tracer;
  tracer.set_thread_name(0, "rank 0");
  tracer.begin(0, "trainer", "epoch", ArgList().add("epoch", 3));
  tracer.instant(0, "controller", "batch_decision",
                 ArgList().add("total_batch", 64).add("note", "a\"b\nc"));
  tracer.end(0, "trainer");

  const json::Value doc = json::parse(tracer.to_json());
  ASSERT_TRUE(doc.is_object());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata + begin + instant + end.
  ASSERT_EQ(events->array.size(), 4u);
  for (const json::Value& event : events->array) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
  }
  // The escaped arg string round-trips through the parser.
  bool found_note = false;
  for (const json::Value& event : events->array) {
    const json::Value* args = event.find("args");
    if (args == nullptr) continue;
    if (const json::Value* note = args->find("note")) {
      EXPECT_EQ(note->string, "a\"b\nc");
      found_note = true;
    }
  }
  EXPECT_TRUE(found_note);
}

TEST(ObsTrace, SpansMatchBeginEndPerRow) {
  Tracer tracer;
  for (int tid = 0; tid < 3; ++tid) {
    tracer.begin(tid, "t", "outer");
    tracer.begin(tid, "t", "inner");
    tracer.end(tid, "t");
    tracer.end(tid, "t");
  }
  std::map<int, int> depth;
  for (const TraceEvent& event : tracer.snapshot()) {
    if (event.phase == Phase::kBegin) ++depth[event.tid];
    if (event.phase == Phase::kEnd) {
      --depth[event.tid];
      EXPECT_GE(depth[event.tid], 0) << "unmatched end on tid " << event.tid;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(ObsTrace, SnapshotTimestampsAreMonotonic) {
  Tracer tracer;
  for (int i = 0; i < 50; ++i) {
    tracer.begin(i % 4, "t", "span");
    tracer.end(i % 4, "t");
  }
  const auto events = tracer.snapshot();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
  }
  EXPECT_GE(events.front().timestamp_ns, 0);
}

TEST(ObsTrace, ConcurrentRecordingFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  Tracer tracer;
  MetricsRegistry metrics;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const Scope scope(&tracer, &metrics, t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanGuard span = scope.span("t", "work", ArgList().add("i", i));
        scope.counter_add("work.items", 1.0);
        scope.observe("work.i", static_cast<double>(i));
        span.close();
      }
    });
  }
  go.store(true);
  // Snapshot concurrently with the writers: must be safe and sorted.
  for (int i = 0; i < 5; ++i) {
    const auto partial = tracer.snapshot();
    for (std::size_t j = 1; j < partial.size(); ++j) {
      EXPECT_GE(partial[j].timestamp_ns, partial[j - 1].timestamp_ns);
    }
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(tracer.event_count(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
  EXPECT_DOUBLE_EQ(metrics.counter("work.items"), kThreads * kSpansPerThread);
  EXPECT_EQ(metrics.histogram("work.i").count,
            static_cast<std::size_t>(kThreads * kSpansPerThread));
}

// --------------------------------------------------------------- metrics

TEST(ObsMetrics, CountersAndGauges) {
  MetricsRegistry metrics;
  EXPECT_DOUBLE_EQ(metrics.counter("missing"), 0.0);
  metrics.counter_add("c", 2.0);
  metrics.counter_add("c", 3.0);
  EXPECT_DOUBLE_EQ(metrics.counter("c"), 5.0);
  metrics.gauge_set("g", 1.0);
  metrics.gauge_set("g", 7.5);
  EXPECT_DOUBLE_EQ(metrics.gauge("g"), 7.5);
}

TEST(ObsMetrics, HistogramNearestRankPercentiles) {
  MetricsRegistry metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.observe("h", static_cast<double>(i));
  }
  const auto summary = metrics.histogram("h");
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.p50, 50.0);
  EXPECT_DOUBLE_EQ(summary.p90, 90.0);
  EXPECT_DOUBLE_EQ(summary.p99, 99.0);
}

TEST(ObsMetrics, BenchJsonRoundTrips) {
  MetricsRegistry metrics;
  metrics.counter_add("ops", 3.0);
  metrics.gauge_set("speedup", 1.5);
  metrics.observe("latency_us", 10.0);
  metrics.observe("latency_us", 20.0);

  const json::Value doc = json::parse(metrics.to_bench_json("unit_test"));
  ASSERT_TRUE(doc.is_object());
  const json::Value* benchmarks = doc.find("benchmarks");
  ASSERT_NE(benchmarks, nullptr);
  ASSERT_EQ(benchmarks->array.size(), 3u);
  bool found_hist = false;
  for (const json::Value& entry : benchmarks->array) {
    const json::Value* name = entry.find("name");
    ASSERT_NE(name, nullptr);
    if (name->string == "latency_us") {
      found_hist = true;
      EXPECT_DOUBLE_EQ(entry.find("mean")->number, 15.0);
      EXPECT_DOUBLE_EQ(entry.find("count")->number, 2.0);
    }
  }
  EXPECT_TRUE(found_hist);
}

// ----------------------------------------------------------------- scope

TEST(ObsScope, DisabledScopeRecordsNothingAndIsSafe) {
  const Scope scope;  // no sinks
  EXPECT_FALSE(scope.enabled());
  EXPECT_FALSE(scope.tracing());
  // Every call must degrade to a no-op, not crash.
  {
    SpanGuard span = scope.span("t", "work");
    scope.instant("t", "event");
    scope.thread_name("rank 0");
    scope.counter_add("c", 1.0);
    scope.gauge_set("g", 1.0);
    scope.observe("h", 1.0);
  }
  const Scope derived = scope.for_rank(kCommTidBase + 3);
  EXPECT_FALSE(derived.enabled());
}

TEST(ObsScope, ForRankRebindsRowKeepingSinks) {
  Tracer tracer;
  MetricsRegistry metrics;
  const Scope scope(&tracer, &metrics, 0);
  const Scope comm_row = scope.for_rank(kCommTidBase + 2);
  EXPECT_TRUE(comm_row.tracing());
  EXPECT_EQ(comm_row.tid(), kCommTidBase + 2);
  comm_row.instant("t", "event");
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, kCommTidBase + 2);
}

// ------------------------------------------------------------ integration

// One real Cannikin epoch (CannikinSystem planning, RealTrainingDriver
// executing on the ParallelTrainer) with the scope attached produces the
// artifact the README documents: per-bucket all-reduce spans on the
// comm rows, backward spans on the worker rows, and controller
// batch_decision events carrying the predicted batch time.
TEST(ObsIntegration, CommSpansMatchAcrossBackends) {
  // Running the same collective program on the thread backend and the
  // event backend must leave equivalent instrumentation: the same comm
  // span names on the same per-rank rows (tid = kCommTidBase + rank,
  // carrying the wire tag), and the same comm.* operation counts. The
  // event backend emits kComplete spans stamped with *virtual* time;
  // the thread backend emits kBegin/kEnd pairs in wall time.
  struct Observed {
    std::multiset<std::string> spans;  ///< "tid/name" per comm span
    double ops_completed = 0.0;
  };
  auto run = [](comm::BackendKind kind) {
    Tracer tracer;
    MetricsRegistry metrics;
    comm::GroupOptions options;
    options.size = 2;
    options.backend = kind;
    options.fabric = sim::FabricModel::uniform_latency(1e-4);
    comm::ProcessGroup group(options);
    group.set_scope(Scope(&tracer, &metrics, 0));
    std::vector<std::vector<double>> data(2, {1.0, 2.0, 3.0});
    std::vector<comm::WorkPtr> works;
    for (int rank = 0; rank < 2; ++rank) {
      works.push_back(comm::async_ring_all_reduce(
          group.communicator(rank), data[static_cast<std::size_t>(rank)],
          group.tags(rank).next(comm::CollectiveKind::kAllReduce)));
    }
    for (auto& work : works) work->wait();

    Observed observed;
    for (const TraceEvent& event : tracer.snapshot()) {
      const bool opens_span = event.phase == Phase::kBegin ||
                              event.phase == Phase::kComplete;
      if (opens_span && std::string(event.category) == "comm") {
        EXPECT_GE(event.tid, kCommTidBase);
        EXPECT_NE(event.args_json.find("tag"), std::string::npos);
        EXPECT_NE(event.args_json.find("queue_us"), std::string::npos);
        if (event.phase == Phase::kComplete) {
          // Virtual timestamps: the two-hop ring at 100us/hop ends at
          // 200us of virtual time, nowhere near wall time.
          EXPECT_LE(event.timestamp_ns + event.duration_ns, 200'000);
          EXPECT_GT(event.duration_ns, 0);
        }
        observed.spans.insert(std::to_string(event.tid) + "/" + event.name);
      }
    }
    observed.ops_completed = metrics.counter("comm.ops_completed");
    EXPECT_GT(metrics.histogram("comm.run_us").count, 0u);
    EXPECT_GT(metrics.histogram("comm.queue_us").count, 0u);
    return observed;
  };

  const Observed threaded = run(comm::BackendKind::kThread);
  const Observed event = run(comm::BackendKind::kEvent);
  EXPECT_EQ(threaded.spans, event.spans);
  EXPECT_EQ(threaded.ops_completed, event.ops_completed);
  EXPECT_EQ(event.spans.count(std::to_string(kCommTidBase) + "/all_reduce"),
            1u);
  EXPECT_EQ(
      event.spans.count(std::to_string(kCommTidBase + 1) + "/all_reduce"),
      1u);
}

TEST(ObsIntegration, AdaptiveEpochTraceCarriesCommAndControllerEvents) {
  dnn::ZooEntry entry;
  entry.workload = "mixture";
  entry.factory = [] { return dnn::make_mlp(10, 16, 1, 3); };
  entry.dataset = std::make_shared<dnn::InMemoryDataset>(
      dnn::make_gaussian_mixture(240, 10, 3, 3.5, 11));
  entry.initial_total_batch = 48;
  const int num_nodes = 2;

  Tracer tracer;
  MetricsRegistry metrics;
  const Scope scope(&tracer, &metrics, 0);

  core::ControllerOptions controller;
  controller.initial_total_batch = 48;
  controller.max_total_batch = 96;
  controller.obs = scope.for_rank(kControllerTid);
  experiments::CannikinSystem system(num_nodes, {240, 240}, controller);

  dnn::TrainerOptions base;
  base.bucket_capacity = 64;  // several buckets -> several spans
  base.seed = 5;
  base.obs = scope;
  experiments::RealTrainingDriver driver(&system, entry, num_nodes, base);
  driver.run_epoch();

  int bucket_spans = 0, backward_spans = 0, decisions = 0;
  bool decision_has_prediction = false;
  for (const TraceEvent& event : tracer.snapshot()) {
    if (event.phase == Phase::kBegin && event.name == "bucket_all_reduce") {
      EXPECT_GE(event.tid, kCommTidBase);
      ++bucket_spans;
    }
    if (event.phase == Phase::kBegin && event.name == "backward") {
      EXPECT_LT(event.tid, num_nodes);
      ++backward_spans;
    }
    if (event.phase == Phase::kInstant && event.name == "batch_decision") {
      EXPECT_EQ(event.tid, kControllerTid);
      ++decisions;
      decision_has_prediction =
          decision_has_prediction ||
          event.args_json.find("predicted_batch_time") != std::string::npos;
    }
  }
  EXPECT_GT(bucket_spans, 0);
  EXPECT_GT(backward_spans, 0);
  EXPECT_EQ(decisions, 1);
  EXPECT_TRUE(decision_has_prediction);

  EXPECT_GE(metrics.counter("controller.plans"), 1.0);
  EXPECT_GT(metrics.counter("reducer.buckets_reduced"), 0.0);
  EXPECT_GT(metrics.histogram("trainer.epoch_seconds").count, 0u);
  EXPECT_GT(metrics.histogram("comm.run_us").count, 0u);

  // The whole trace must still be valid JSON.
  const json::Value doc = json::parse(tracer.to_json());
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
}

}  // namespace
}  // namespace cannikin::obs
