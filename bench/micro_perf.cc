// Google-benchmark micro-benchmarks for the hot paths whose cost the
// paper accounts as overhead: Algorithm 1 (overlap-state search +
// OptPerf solve), warm-started re-solves, the Theorem 4.1 weight
// computation, the bucketized ring all-reduce, and the event-level
// batch timeline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>

#include "bench_common.h"
#include "comm/bucket.h"
#include "comm/process_group.h"
#include "common/rng.h"
#include "core/gns.h"
#include "core/optperf.h"
#include "dnn/data.h"
#include "dnn/kernels/arena.h"
#include "dnn/kernels/kernels.h"
#include "dnn/loss.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "dnn/parallel_trainer.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

// ------------------------------------------------------------------
// Process-wide heap-allocation counter, for the allocs-per-step metric
// of the kernel/arena section: the zero-alloc steady-state claim is
// measured, not asserted from code inspection.
std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cannikin;

core::OptPerfSolver make_solver(int n) {
  Rng rng(7);
  std::vector<core::NodeModel> models;
  for (int i = 0; i < n; ++i) {
    core::NodeModel m;
    m.q = rng.uniform(1e-4, 5e-3);
    m.s = rng.uniform(1e-3, 2e-2);
    m.k = rng.uniform(1e-4, 8e-3);
    m.m = rng.uniform(1e-3, 1e-2);
    models.push_back(m);
  }
  return core::OptPerfSolver(std::move(models),
                             core::CommTimes{0.2, 0.06, 0.01});
}

void BM_OptPerfSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto solver = make_solver(n);
  double total = n * 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(total));
    total += 1.0;  // defeat caching
  }
  state.SetLabel("nodes=" + std::to_string(n));
}
BENCHMARK(BM_OptPerfSolve)->Arg(3)->Arg(16)->Arg(64)->Arg(256);

void BM_OptPerfSolveWarm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto solver = make_solver(n);
  const double total = n * 40.0;
  const int hint = solver.solve(total).num_compute_bottleneck;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_with_hint(total, hint));
  }
}
BENCHMARK(BM_OptPerfSolveWarm)->Arg(16)->Arg(256);

void BM_GnsWeights(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<double> batches;
  for (int i = 0; i < n; ++i) batches.push_back(rng.uniform(4.0, 128.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_grad_weights(batches));
    benchmark::DoNotOptimize(core::optimal_noise_weights(batches));
  }
}
BENCHMARK(BM_GnsWeights)->Arg(3)->Arg(16)->Arg(64);

void BM_BatchTimeline(benchmark::State& state) {
  const auto& workload = workloads::by_name("squad");  // 18 buckets
  sim::ClusterJob job(sim::cluster_b(), workload.profile,
                      sim::NoiseConfig::none(), 1);
  std::vector<double> batches(16, 8.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(job.true_batch_time(batches));
  }
}
BENCHMARK(BM_BatchTimeline);

// --------------------------------------------------------------------
// Compute/communication overlap: the measured wall-clock difference
// between reducing after backward finishes (sync) and streaming each
// bucket into the async engine the moment it is ready. "Backward
// compute" is a sleep (the host-CPU analogue of a GPU kernel: it takes
// time without occupying this core) and the link carries a per-message
// latency, so the async engine can genuinely hide transmission time --
// even on a single-core machine.
constexpr int kOverlapRanks = 4;
constexpr std::size_t kOverlapBuckets = 6;
constexpr std::size_t kOverlapElems = 2048;  // per bucket
constexpr double kOverlapLinkLatency = 0.8e-3;
constexpr auto kOverlapComputePerBucket = std::chrono::microseconds(4000);

void BM_OverlapSyncBackwardThenReduce(benchmark::State& state) {
  const auto buckets =
      comm::make_buckets(kOverlapBuckets * kOverlapElems, kOverlapElems);
  for (auto _ : state) {
    comm::ProcessGroup group(kOverlapRanks);
    group.set_fabric(sim::FabricModel::uniform_latency(kOverlapLinkLatency));
    std::vector<std::thread> threads;
    for (int rank = 0; rank < kOverlapRanks; ++rank) {
      threads.emplace_back([&, rank] {
        comm::Communicator comm = group.communicator(rank);
        std::vector<double> grad(kOverlapBuckets * kOverlapElems,
                                 rank + 1.0);
        const std::uint64_t tag = comm.tags().block(
            comm::CollectiveKind::kBucketAllReduce, buckets.size());
        // Full backward first...
        for (std::size_t b = 0; b < kOverlapBuckets; ++b) {
          std::this_thread::sleep_for(kOverlapComputePerBucket);
        }
        // ...then every bucket's reduce, fully exposed.
        comm::bucketized_weighted_all_reduce(
            comm, std::span<double>(grad), 0.25, buckets, tag);
        benchmark::DoNotOptimize(grad.data());
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetLabel("buckets=" + std::to_string(kOverlapBuckets) +
                 " latency=" + std::to_string(kOverlapLinkLatency * 1e3) +
                 "ms");
}
BENCHMARK(BM_OverlapSyncBackwardThenReduce)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_OverlapAsyncBucketReducer(benchmark::State& state) {
  const auto buckets =
      comm::make_buckets(kOverlapBuckets * kOverlapElems, kOverlapElems);
  for (auto _ : state) {
    comm::ProcessGroup group(kOverlapRanks);
    group.set_fabric(sim::FabricModel::uniform_latency(kOverlapLinkLatency));
    std::vector<std::thread> threads;
    for (int rank = 0; rank < kOverlapRanks; ++rank) {
      threads.emplace_back([&, rank] {
        comm::Communicator comm = group.communicator(rank);
        std::vector<double> grad(kOverlapBuckets * kOverlapElems,
                                 rank + 1.0);
        const std::uint64_t tag = comm.tags().block(
            comm::CollectiveKind::kBucketAllReduce, buckets.size());
        comm::BucketReducer reducer(comm, std::span<double>(grad), 0.25,
                                    buckets, tag);
        // Each bucket's reduce launches while later buckets are still
        // "computing" -- the DDP overlap pipeline.
        for (const comm::Bucket& bucket : buckets) {
          std::this_thread::sleep_for(kOverlapComputePerBucket);
          reducer.mark_ready(bucket.offset, bucket.length);
        }
        const auto stats = reducer.finish();
        benchmark::DoNotOptimize(stats.exposed_wait_seconds);
        benchmark::DoNotOptimize(grad.data());
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetLabel("buckets=" + std::to_string(kOverlapBuckets) +
                 " latency=" + std::to_string(kOverlapLinkLatency * 1e3) +
                 "ms");
}
BENCHMARK(BM_OverlapAsyncBucketReducer)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RingAllReduce(benchmark::State& state) {
  const int n = 4;
  const std::size_t elements = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    comm::ProcessGroup group(n);
    std::vector<std::thread> threads;
    for (int rank = 0; rank < n; ++rank) {
      threads.emplace_back([&, rank] {
        comm::Communicator comm = group.communicator(rank);
        std::vector<double> data(elements, rank);
        comm::ring_all_reduce(comm, std::span<double>(data), 1);
        benchmark::DoNotOptimize(data.data());
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(elements) * 8);
}
BENCHMARK(BM_RingAllReduce)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// --------------------------------------------------------------------
// Direct overlap measurement for the BENCH_obs.json artifact: the same
// sync vs async scenario as the benchmarks above, plus the async run
// with tracing *enabled*, so the observability layer's own overhead is
// reported as a metric instead of asserted.

double run_overlap_seconds(bool async, obs::Scope scope) {
  const auto buckets =
      comm::make_buckets(kOverlapBuckets * kOverlapElems, kOverlapElems);
  comm::ProcessGroup group(kOverlapRanks);
  group.set_fabric(sim::FabricModel::uniform_latency(kOverlapLinkLatency));
  if (scope.enabled()) group.set_scope(scope);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kOverlapRanks; ++rank) {
    threads.emplace_back([&, rank] {
      comm::Communicator comm = group.communicator(rank);
      std::vector<double> grad(kOverlapBuckets * kOverlapElems, rank + 1.0);
      const std::uint64_t tag = comm.tags().block(
          comm::CollectiveKind::kBucketAllReduce, buckets.size());
      if (async) {
        comm::BucketReducer reducer(comm, std::span<double>(grad), 0.25,
                                    buckets, tag);
        for (const comm::Bucket& bucket : buckets) {
          std::this_thread::sleep_for(kOverlapComputePerBucket);
          reducer.mark_ready(bucket.offset, bucket.length);
        }
        reducer.finish();
      } else {
        for (std::size_t b = 0; b < kOverlapBuckets; ++b) {
          std::this_thread::sleep_for(kOverlapComputePerBucket);
        }
        comm::bucketized_weighted_all_reduce(comm, std::span<double>(grad),
                                             0.25, buckets, tag);
      }
      benchmark::DoNotOptimize(grad.data());
    });
  }
  for (auto& t : threads) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, fn());
  return best;
}

// --------------------------------------------------------------------
// Compute-kernel section (BENCH_dnn.json): GEMM throughput of the two
// kernel backends, per-step wall clock + heap allocations of a full
// training step, and end-to-end epoch wall clock through the trainer.

constexpr std::size_t kGemmDim = 256;

// Times the `linear` kernel -- C = A(m,k) * W(n,k)^T, the GEMM every
// Linear layer issues in forward and the dominant cost of a GEMM-bound
// training step. The naive reference is the original single-accumulator
// dot loop, which the compiler cannot vectorize without reassociation
// (the accumulation order is the bitwise contract); the optimized
// backend reaches SIMD by packing W^T and accumulating in the
// independent-column axpy order, which preserves that contract.
double time_gemm_seconds(dnn::kernels::KernelKind kind) {
  const dnn::kernels::KernelBackend& backend = dnn::kernels::kernel(kind);
  Rng rng(11);
  std::vector<double> a(kGemmDim * kGemmDim), w(kGemmDim * kGemmDim);
  for (double& v : a) v = rng.normal();
  for (double& v : w) v = rng.normal();
  std::vector<double> c(kGemmDim * kGemmDim, 0.0);
  // Warm the caches, then time a small batch of calls.
  backend.linear(a.data(), w.data(), nullptr, c.data(), kGemmDim, kGemmDim,
                 kGemmDim, dnn::kernels::Activation::kNone, nullptr,
                 std::pmr::get_default_resource());
  constexpr int kCalls = 4;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    backend.linear(a.data(), w.data(), nullptr, c.data(), kGemmDim, kGemmDim,
                   kGemmDim, dnn::kernels::Activation::kNone, nullptr,
                   std::pmr::get_default_resource());
    benchmark::DoNotOptimize(c.data());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         kCalls;
}

struct StepBench {
  double ms_per_step = 0.0;
  double allocs_per_step = 0.0;
};

// One full training step (gather, forward, loss, streamed backward,
// SGD update) of an MLP whose cost is GEMM-dominated; matches the
// trainer worker's steady-state loop structure.
StepBench run_train_steps(dnn::kernels::KernelKind kind, bool use_arena) {
  const auto dataset = dnn::make_gaussian_mixture(256, 64, 10, 2.0, 5);
  dnn::Model model = dnn::make_mlp(64, 256, 2, 10);
  Rng rng(1);
  model.init(rng);
  dnn::kernels::Arena arena;
  const dnn::kernels::Context kctx{
      &dnn::kernels::kernel(kind), nullptr,
      use_arena ? arena.resource() : nullptr};
  model.set_context(&kctx);
  dnn::Sgd sgd(0.9);
  std::vector<double> gradient(model.num_params(), 0.0);
  std::vector<double> local_params(model.num_params(), 0.0);
  std::vector<std::size_t> indices(64);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const std::span<const std::size_t> slice(indices);
  const auto labels = dataset.gather_labels(slice);
  const dnn::GradReadyFn on_ready = [](std::size_t, std::size_t) {};

  const auto step = [&] {
    arena.reset();
    model.zero_grads();
    const dnn::Tensor inputs = dataset.gather(slice, kctx.resource());
    const dnn::Tensor outputs = model.forward(inputs);
    const dnn::LossResult loss =
        dnn::softmax_cross_entropy(outputs, labels, &kctx);
    model.backward(loss.grad, gradient, on_ready);
    model.copy_flat_params(local_params);
    sgd.step(local_params, gradient, 0.01, &kctx);
    model.set_flat_params(std::span<const double>(local_params));
  };

  for (int warmup = 0; warmup < 3; ++warmup) step();

  StepBench result;
  constexpr int kSteps = 20;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSteps; ++i) step();
  result.ms_per_step =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1e3 / kSteps;
  result.allocs_per_step =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      kSteps;
  return result;
}

double run_epoch_seconds(dnn::kernels::KernelKind kind) {
  const auto dataset = dnn::make_gaussian_mixture(2048, 64, 10, 2.0, 9);
  auto factory = [] { return dnn::make_mlp(64, 256, 2, 10); };
  dnn::TrainerOptions options;
  options.num_nodes = 1;
  options.base_lr = 0.05;
  options.lr_scaling = dnn::LrScaling::kNone;
  options.initial_total_batch = 64;
  options.seed = 3;
  options.kernel_kind = kind;
  dnn::ParallelTrainer trainer(&dataset, factory, options);
  const auto t0 = std::chrono::steady_clock::now();
  trainer.run_epoch({64});
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace cannikin;
  bench::BenchReport report("bench/micro_perf");

  const double sync_s = best_of(3, [] {
    return run_overlap_seconds(/*async=*/false, obs::Scope{});
  });
  const double async_s = best_of(3, [] {
    return run_overlap_seconds(/*async=*/true, obs::Scope{});
  });
  obs::Tracer tracer;
  const double traced_s = best_of(3, [&] {
    return run_overlap_seconds(/*async=*/true,
                               obs::Scope(&tracer, &report.registry()));
  });

  report.gauge("overlap.sync_ms", sync_s * 1e3);
  report.gauge("overlap.async_ms", async_s * 1e3);
  report.gauge("overlap.async_traced_ms", traced_s * 1e3);
  report.gauge("overlap.speedup", sync_s / async_s);
  const double overhead_pct = 100.0 * (traced_s - async_s) / async_s;
  report.gauge("overlap.tracing_overhead_pct", overhead_pct);
  report.gauge("overlap.trace_events",
               static_cast<double>(tracer.event_count()));

  std::printf(
      "\noverlap: sync %.2fms  async %.2fms (%.2fx)  traced %.2fms "
      "(overhead %+.2f%%)\n",
      sync_s * 1e3, async_s * 1e3, sync_s / async_s, traced_s * 1e3,
      overhead_pct);
  bench::shape_check(async_s < sync_s,
                     "async bucket streaming hides transmission time");
  bench::shape_check(tracer.event_count() > 0,
                     "the traced run recorded comm spans");
  report.write("BENCH_obs.json");

  // ------------------------------------------------- compute kernels
  bench::BenchReport dnn_report("bench/micro_perf");

  const double naive_gemm_s = best_of(3, [] {
    return time_gemm_seconds(dnn::kernels::KernelKind::kNaive);
  });
  const double opt_gemm_s = best_of(3, [] {
    return time_gemm_seconds(dnn::kernels::KernelKind::kOptimized);
  });
  const double flops = 2.0 * kGemmDim * kGemmDim * kGemmDim;
  const double gemm_speedup = naive_gemm_s / opt_gemm_s;
  dnn_report.gauge("gemm256.naive_gflops", flops / naive_gemm_s / 1e9);
  dnn_report.gauge("gemm256.optimized_gflops", flops / opt_gemm_s / 1e9);
  dnn_report.gauge("gemm256.speedup", gemm_speedup);

  const StepBench naive_step =
      run_train_steps(dnn::kernels::KernelKind::kNaive, /*use_arena=*/false);
  const StepBench opt_step = run_train_steps(
      dnn::kernels::KernelKind::kOptimized, /*use_arena=*/true);
  dnn_report.gauge("train_step.naive_heap_ms", naive_step.ms_per_step);
  dnn_report.gauge("train_step.optimized_arena_ms", opt_step.ms_per_step);
  dnn_report.gauge("train_step.speedup",
                   naive_step.ms_per_step / opt_step.ms_per_step);
  dnn_report.gauge("train_step.naive_heap_allocs_per_step",
                   naive_step.allocs_per_step);
  dnn_report.gauge("train_step.optimized_arena_allocs_per_step",
                   opt_step.allocs_per_step);

  const double naive_epoch_s = best_of(2, [] {
    return run_epoch_seconds(dnn::kernels::KernelKind::kNaive);
  });
  const double opt_epoch_s = best_of(2, [] {
    return run_epoch_seconds(dnn::kernels::KernelKind::kOptimized);
  });
  dnn_report.gauge("epoch.naive_seconds", naive_epoch_s);
  dnn_report.gauge("epoch.optimized_seconds", opt_epoch_s);
  dnn_report.gauge("epoch.speedup", naive_epoch_s / opt_epoch_s);

  std::printf(
      "\ndnn kernels: gemm256 %.2f -> %.2f GFLOP/s (%.2fx)  step %.3f -> "
      "%.3fms (allocs/step %.1f -> %.1f)  epoch %.2f -> %.2fs (%.2fx)\n",
      flops / naive_gemm_s / 1e9, flops / opt_gemm_s / 1e9, gemm_speedup,
      naive_step.ms_per_step, opt_step.ms_per_step,
      naive_step.allocs_per_step, opt_step.allocs_per_step, naive_epoch_s,
      opt_epoch_s, naive_epoch_s / opt_epoch_s);
  bench::shape_check(gemm_speedup >= 5.0,
                     "optimized GEMM is >= 5x naive at 256^3");
  bench::shape_check(opt_step.allocs_per_step == 0.0,
                     "arena-backed training steps are heap-allocation-free");
  bench::shape_check(opt_epoch_s < naive_epoch_s,
                     "optimized kernels reduce e2e epoch wall clock");
  dnn_report.write("BENCH_dnn.json");

  if (gemm_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: optimized GEMM speedup %.2fx is below the 3x gate\n",
                 gemm_speedup);
    return 1;
  }
  return 0;
}
