// Measurements perfbench does not take: the wall-clock gain of
// streaming gradient buckets into the async comm engine while backward
// still runs (BENCH_obs.json, with the tracing layer's own overhead),
// and the compute kernels' speedups over the naive reference
// (BENCH_dnn.json, with the GEMM and conv de-vectorization gates).
// Takes no arguments.
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
#include "dnn/data.h"
#include "dnn/kernels/arena.h"
#include "dnn/kernels/kernels.h"
#include "dnn/loss.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "dnn/parallel_trainer.h"
#include "dnn/zoo.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "sim/network.h"

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

// --------------------------------------------------------------------
// Compute/communication overlap (BENCH_obs.json): the measured
// wall-clock difference between reducing after backward finishes
// (sync) and streaming each bucket into the async engine the moment it
// is ready, plus the async run with tracing *enabled*, so the
// observability layer's own overhead is reported as a metric instead
// of asserted. "Backward compute" is a sleep (the host-CPU analogue of
// a GPU kernel: it takes time without occupying this core) and the
// link carries a per-message latency, so the async engine can
// genuinely hide transmission time -- even on a single-core machine.
constexpr int kOverlapRanks = 4;
constexpr std::size_t kOverlapBuckets = 6;
constexpr std::size_t kOverlapElems = 2048;  // per bucket
constexpr double kOverlapLinkLatency = 0.8e-3;
constexpr auto kOverlapComputePerBucket = std::chrono::microseconds(4000);

double run_overlap_seconds(bool async, obs::Scope scope) {
  const auto buckets =
      comm::make_buckets(kOverlapBuckets * kOverlapElems, kOverlapElems);
  comm::GroupOptions options;
  options.size = kOverlapRanks;
  options.fabric = sim::FabricModel::uniform_latency(kOverlapLinkLatency);
  comm::ProcessGroup group(options);
  if (scope.enabled()) group.set_scope(scope);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kOverlapRanks; ++rank) {
    threads.emplace_back([&, rank] {
      comm::Communicator comm = group.communicator(rank);
      std::vector<double> grad(kOverlapBuckets * kOverlapElems, rank + 1.0);
      const std::uint64_t tag = comm.tags().block(
          comm::CollectiveKind::kBucketAllReduce, buckets.size());
      comm::BucketReducer reducer(comm, std::span<double>(grad), 0.25,
                                  buckets, tag);
      for (const comm::Bucket& bucket : buckets) {
        std::this_thread::sleep_for(kOverlapComputePerBucket);
        // Async launches each bucket's reduce while later buckets are
        // still "computing"; sync leaves every bucket to finish(), after
        // the full backward, so each reduce is exposed.
        if (async) reducer.mark_ready(bucket.offset, bucket.length);
      }
      reducer.finish();
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
double time_gemm_seconds(dnn::kernels::KernelKind kind,
                         const std::vector<double>& a,
                         const std::vector<double>& w, std::vector<double>& c) {
  const dnn::kernels::KernelBackend& backend = dnn::kernels::kernel(kind);
  // Warm the caches, then time a small batch of calls.
  backend.linear(a.data(), w.data(), nullptr, c.data(), kGemmDim, kGemmDim,
                 kGemmDim, dnn::kernels::Activation::kNone,
                 std::pmr::get_default_resource());
  constexpr int kCalls = 4;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    backend.linear(a.data(), w.data(), nullptr, c.data(), kGemmDim, kGemmDim,
                   kGemmDim, dnn::kernels::Activation::kNone,
                   std::pmr::get_default_resource());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         kCalls;
}

double median(std::vector<double> values) {
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

// Median seconds per GEMM call of the naive and the optimized kernel,
// timed in `reps` interleaved rounds (naive, then optimized, in each):
// a slow stretch of a shared machine lands on both kernels alike
// instead of on whichever one it happened to be timing.
struct GemmSeconds {
  double naive = 0.0;
  double optimized = 0.0;
};
GemmSeconds time_gemm_interleaved(int reps) {
  // Every call of every round multiplies the same Gaussian operands,
  // drawn once.
  Rng rng(11);
  std::vector<double> a(kGemmDim * kGemmDim), w(kGemmDim * kGemmDim);
  for (double& v : a) v = rng.normal();
  for (double& v : w) v = rng.normal();
  std::vector<double> c(kGemmDim * kGemmDim, 0.0);
  std::vector<double> naive, optimized;
  for (int i = 0; i < reps; ++i) {
    naive.push_back(
        time_gemm_seconds(dnn::kernels::KernelKind::kNaive, a, w, c));
    optimized.push_back(
        time_gemm_seconds(dnn::kernels::KernelKind::kOptimized, a, w, c));
  }
  return {median(std::move(naive)), median(std::move(optimized))};
}

// The cifar10 stand-in's two convolutions at the heavier rank's share
// (43 samples) of real_train's 64-sample batch: 3->6 channels over
// 8x8, then 6->6 over 4x4, both 3x3 with padding 1.
const dnn::kernels::ConvShape kCifarConvs[] = {{43, 3, 6, 8, 8, 3, 1},
                                               {43, 6, 6, 4, 4, 3, 1}};

// Nominal FLOPs of one forward + weight-gradient + input-gradient pass
// over both convolutions (padding taps counted, as the forward does).
double cifar_conv_flops() {
  double flops = 0.0;
  for (const auto& s : kCifarConvs) {
    flops += 3.0 * 2.0 * static_cast<double>(s.batch * s.out_c * s.oh() *
                                             s.ow() * s.in_c * s.k * s.k);
  }
  return flops;
}

// Times the three conv ops of both cifar10 convolutions, serial, on
// Gaussian data with ~half the output gradients zero (as after ReLU).
double time_conv_seconds(dnn::kernels::KernelKind kind) {
  const dnn::kernels::KernelBackend& backend = dnn::kernels::kernel(kind);
  dnn::kernels::Arena arena;
  Rng rng(13);
  struct Buffers {
    std::vector<double> input, weight, bias, out, grad_out, weight_grad,
        bias_grad, grad_input;
  };
  std::vector<Buffers> layers;
  for (const auto& s : kCifarConvs) {
    Buffers b;
    const auto fill = [&rng](std::size_t n, double zero_frac) {
      std::vector<double> v(n);
      for (double& x : v) x = rng.bernoulli(zero_frac) ? 0.0 : rng.normal();
      return v;
    };
    b.input = fill(s.batch * s.in_c * s.h * s.w, 0.0);
    b.weight = fill(s.out_c * s.in_c * s.k * s.k, 0.0);
    b.bias = fill(s.out_c, 0.0);
    b.grad_out = fill(s.batch * s.out_c * s.oh() * s.ow(), 0.5);
    b.out.assign(b.grad_out.size(), 0.0);
    b.weight_grad.assign(b.weight.size(), 0.0);
    b.bias_grad.assign(s.out_c, 0.0);
    b.grad_input.assign(b.input.size(), 0.0);
    layers.push_back(std::move(b));
  }
  const auto pass = [&] {
    arena.reset();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto& s = kCifarConvs[i];
      Buffers& b = layers[i];
      backend.conv2d_forward(b.input.data(), b.weight.data(), b.bias.data(),
                             b.out.data(), s, arena.resource());
      backend.conv2d_backward_params(b.input.data(), b.grad_out.data(),
                                     b.weight_grad.data(), b.bias_grad.data(),
                                     s, arena.resource());
      backend.conv2d_backward_input(b.grad_out.data(), b.weight.data(),
                                    b.grad_input.data(), s, arena.resource());
    }
  };
  pass();  // warm the caches and the arena
  constexpr int kPasses = 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPasses; ++i) pass();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         kPasses;
}

struct StepBench {
  double ms_per_step = 0.0;
  double allocs_per_step = 0.0;
};

// One full training step (gather, forward, loss, streamed backward,
// SGD update) over the first `batch` samples; matches the trainer
// worker's steady-state loop structure.
StepBench run_train_steps(dnn::kernels::KernelKind kind, bool use_arena,
                          const dnn::InMemoryDataset& dataset,
                          dnn::Model model, std::size_t batch) {
  Rng rng(1);
  model.init(rng);
  dnn::kernels::Arena arena;
  const dnn::kernels::Context kctx{&dnn::kernels::kernel(kind),
                                   use_arena ? arena.resource() : nullptr};
  model.set_context(&kctx);
  dnn::Sgd sgd(0.9);
  std::vector<double> gradient(model.num_params(), 0.0);
  std::vector<double> local_params(model.num_params(), 0.0);
  std::vector<std::size_t> indices(batch);
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
  if (argc > 1) {
    std::fprintf(stderr, "%s: unknown argument '%s' (takes none)\n", argv[0],
                 argv[1]);
    return 2;
  }

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

  const auto [naive_gemm_s, opt_gemm_s] = time_gemm_interleaved(/*reps=*/21);
  const double flops = 2.0 * kGemmDim * kGemmDim * kGemmDim;
  const double gemm_speedup = naive_gemm_s / opt_gemm_s;
  dnn_report.gauge("gemm256.naive_gflops", flops / naive_gemm_s / 1e9);
  dnn_report.gauge("gemm256.optimized_gflops", flops / opt_gemm_s / 1e9);
  dnn_report.gauge("gemm256.speedup", gemm_speedup);

  // An MLP whose cost is GEMM-dominated.
  const auto mlp_data = dnn::make_gaussian_mixture(256, 64, 10, 2.0, 5);
  const StepBench naive_step =
      run_train_steps(dnn::kernels::KernelKind::kNaive, /*use_arena=*/false,
                      mlp_data, dnn::make_mlp(64, 256, 2, 10), 64);
  const StepBench opt_step =
      run_train_steps(dnn::kernels::KernelKind::kOptimized,
                      /*use_arena=*/true, mlp_data,
                      dnn::make_mlp(64, 256, 2, 10), 64);
  dnn_report.gauge("train_step.naive_heap_ms", naive_step.ms_per_step);
  dnn_report.gauge("train_step.optimized_arena_ms", opt_step.ms_per_step);
  dnn_report.gauge("train_step.speedup",
                   naive_step.ms_per_step / opt_step.ms_per_step);
  dnn_report.gauge("train_step.naive_heap_allocs_per_step",
                   naive_step.allocs_per_step);
  dnn_report.gauge("train_step.optimized_arena_allocs_per_step",
                   opt_step.allocs_per_step);

  const double naive_conv_s = best_of(3, [] {
    return time_conv_seconds(dnn::kernels::KernelKind::kNaive);
  });
  const double opt_conv_s = best_of(3, [] {
    return time_conv_seconds(dnn::kernels::KernelKind::kOptimized);
  });
  const double conv_speedup = naive_conv_s / opt_conv_s;
  dnn_report.gauge("conv_cifar10.naive_gflops",
                   cifar_conv_flops() / naive_conv_s / 1e9);
  dnn_report.gauge("conv_cifar10.optimized_gflops",
                   cifar_conv_flops() / opt_conv_s / 1e9);
  dnn_report.gauge("conv_cifar10.speedup", conv_speedup);

  // The cifar10 stand-in CNN at the same 43-sample share; its cost is
  // almost all Conv2d.
  const dnn::ZooEntry cifar = dnn::make_standin("cifar10", 256, 3);
  const StepBench naive_cnn =
      run_train_steps(dnn::kernels::KernelKind::kNaive, /*use_arena=*/false,
                      *cifar.dataset, cifar.factory(), 43);
  const StepBench opt_cnn =
      run_train_steps(dnn::kernels::KernelKind::kOptimized,
                      /*use_arena=*/true, *cifar.dataset, cifar.factory(), 43);
  dnn_report.gauge("cnn_step.naive_heap_ms", naive_cnn.ms_per_step);
  dnn_report.gauge("cnn_step.optimized_arena_ms", opt_cnn.ms_per_step);
  dnn_report.gauge("cnn_step.speedup",
                   naive_cnn.ms_per_step / opt_cnn.ms_per_step);
  dnn_report.gauge("cnn_step.optimized_arena_allocs_per_step",
                   opt_cnn.allocs_per_step);

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
  std::printf(
      "dnn kernels: cifar10 conv %.2f -> %.2f GFLOP/s (%.2fx)  cnn step "
      "%.3f -> %.3fms (arena allocs/step %.1f)\n",
      cifar_conv_flops() / naive_conv_s / 1e9,
      cifar_conv_flops() / opt_conv_s / 1e9, conv_speedup,
      naive_cnn.ms_per_step, opt_cnn.ms_per_step, opt_cnn.allocs_per_step);
  bench::shape_check(gemm_speedup >= 5.0,
                     "optimized GEMM is >= 5x naive at 256^3");
  bench::shape_check(
      opt_step.allocs_per_step == 0.0 && opt_cnn.allocs_per_step == 0.0,
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
  if (conv_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: optimized conv speedup %.2fx is below the 2x gate\n",
                 conv_speedup);
    return 1;
  }
  return 0;
}
