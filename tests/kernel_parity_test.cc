// Property-based conformance suite for the compute-kernel layer.
//
// The optimized backend's contract (DESIGN.md "Compute kernels") is
// checked here, not assumed: a randomized sweep of well over 200
// shapes -- odd and non-blocked sizes, batch 1, degenerate dims --
// asserts that every optimized kernel agrees with the retained naive
// reference BITWISE, whether its scratch comes from the heap or from an
// arena.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dnn/kernels/arena.h"
#include "dnn/kernels/kernels.h"
#include "dnn/layers.h"

namespace cannikin::dnn::kernels {
namespace {

using dnn::Conv2d;
using dnn::Layer;
using dnn::Linear;
using dnn::Tensor;

// Dimensions chosen to straddle the blocking scheme (kRowBlock = 8,
// kKBlock = 16): below, at, just past, and far past block boundaries,
// plus 1 for batch-1 / degenerate axes.
const std::size_t kDims[] = {1,  2,  3,  4,  5,  7,  8,  9, 13,
                             16, 17, 31, 32, 33, 48, 64, 100};

std::size_t random_dim(Rng& rng) {
  return kDims[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(std::size(kDims)) - 1))];
}

// ~20% exact zeros so the reference's `v == 0.0` skip branches (and
// their replication in the optimized kernels) are exercised.
std::vector<double> random_values(std::size_t n, Rng& rng) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.bernoulli(0.2) ? 0.0 : rng.normal();
  }
  return values;
}

std::int64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  // Map the sign-magnitude bit pattern onto a monotone integer line.
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  const std::int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what,
                    std::size_t m, std::size_t k, std::size_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      ADD_FAILURE() << what << " diverges at element " << i << " for shape m="
                    << m << " k=" << k << " n=" << n << ": got " << got[i]
                    << " want " << want[i] << " (ulp "
                    << ulp_distance(got[i], want[i]) << ")";
      return;
    }
  }
}

const KernelBackend& naive() { return kernel(KernelKind::kNaive); }
const KernelBackend& optimized() { return kernel(KernelKind::kOptimized); }

// ------------------------------------------------ deterministic path

// 80 randomized shapes per GEMM-family op (240 total, over the 200
// the conformance contract requires) -- each must be bitwise.
constexpr int kShapesPerOp = 80;

TEST(KernelParity, MatmulNnBitwiseOnSerialPath) {
  Rng rng(101);
  for (int iter = 0; iter < kShapesPerOp; ++iter) {
    const std::size_t m = random_dim(rng), k = random_dim(rng),
                      n = random_dim(rng);
    const auto a = random_values(m * k, rng);
    const auto b = random_values(k * n, rng);
    std::vector<double> c_ref(m * n, -7.0);  // overwritten by contract
    std::vector<double> c_opt(m * n, 3.0);
    naive().matmul_nn(a.data(), b.data(), c_ref.data(), m, k, n);
    optimized().matmul_nn(a.data(), b.data(), c_opt.data(), m, k, n);
    expect_bitwise(c_opt, c_ref, "matmul_nn", m, k, n);
  }
}

TEST(KernelParity, LinearBitwiseOnSerialPath) {
  Rng rng(202);
  Arena arena;
  for (int iter = 0; iter < kShapesPerOp; ++iter) {
    arena.reset();
    const std::size_t m = random_dim(rng), k = random_dim(rng),
                      n = random_dim(rng);
    const auto a = random_values(m * k, rng);
    const auto w = random_values(n * k, rng);  // (n, k): transposed layout
    const auto bias = random_values(n, rng);
    const bool with_bias = iter % 2 == 0;
    const Activation act = static_cast<Activation>(iter % 3);
    std::vector<double> c_ref(m * n, 0.0);
    naive().linear(a.data(), w.data(), with_bias ? bias.data() : nullptr,
                   c_ref.data(), m, k, n, act,
                   std::pmr::get_default_resource());
    // Heap scratch (no arena attached) and arena scratch (the
    // trainer's) must both leave the result bitwise unchanged.
    for (std::pmr::memory_resource* scratch :
         {std::pmr::get_default_resource(), arena.resource()}) {
      std::vector<double> c_opt(m * n, 0.0);
      optimized().linear(a.data(), w.data(),
                         with_bias ? bias.data() : nullptr, c_opt.data(), m,
                         k, n, act, scratch);
      expect_bitwise(c_opt, c_ref, "linear", m, k, n);
    }
  }
}

TEST(KernelParity, MatmulTnAccBitwiseOnSerialPath) {
  Rng rng(303);
  for (int iter = 0; iter < kShapesPerOp; ++iter) {
    const std::size_t m = random_dim(rng), k = random_dim(rng),
                      n = random_dim(rng);
    const auto a = random_values(k * m, rng);  // (k, m): read transposed
    const auto b = random_values(k * n, rng);
    // Accumulating op: both backends start from the same nonzero C.
    const auto seed_c = random_values(m * n, rng);
    std::vector<double> c_ref = seed_c;
    std::vector<double> c_opt = seed_c;
    naive().matmul_tn_acc(a.data(), b.data(), c_ref.data(), m, k, n);
    optimized().matmul_tn_acc(a.data(), b.data(), c_opt.data(), m, k, n);
    expect_bitwise(c_opt, c_ref, "matmul_tn_acc", m, k, n);
  }
}

TEST(KernelParity, ColSumAccBitwiseOnSerialPath) {
  Rng rng(404);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t m = random_dim(rng), n = random_dim(rng);
    const auto a = random_values(m * n, rng);
    const auto seed_out = random_values(n, rng);
    std::vector<double> out_ref = seed_out;
    std::vector<double> out_opt = seed_out;
    naive().col_sum_acc(a.data(), out_ref.data(), m, n);
    optimized().col_sum_acc(a.data(), out_opt.data(), m, n);
    expect_bitwise(out_opt, out_ref, "col_sum_acc", m, 0, n);
  }
}

TEST(KernelParity, FusedLinearMatchesComposedReference) {
  // act(A W^T + b) fused must equal the unfused pipeline (plain linear
  // followed by standalone activation) bitwise -- fusing an epilogue
  // must never change numbers.
  Rng rng(505);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t m = random_dim(rng), k = random_dim(rng),
                      n = random_dim(rng);
    const auto a = random_values(m * k, rng);
    const auto w = random_values(n * k, rng);
    const auto bias = random_values(n, rng);
    for (Activation act : {Activation::kReLU, Activation::kTanh}) {
      std::vector<double> fused(m * n, 0.0);
      std::vector<double> composed(m * n, 0.0);
      optimized().linear(a.data(), w.data(), bias.data(), fused.data(), m, k,
                         n, act, std::pmr::get_default_resource());
      naive().linear(a.data(), w.data(), bias.data(), composed.data(), m, k,
                     n, Activation::kNone, std::pmr::get_default_resource());
      naive().activation_forward(act, composed.data(), composed.data(), m * n);
      expect_bitwise(fused, composed, "fused linear", m, k, n);
    }
  }
}

TEST(KernelParity, ActivationForwardBackwardBitwise) {
  Rng rng(606);
  for (std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{1023}, std::size_t{4096}}) {
    const auto x = random_values(count, rng);
    const auto dy = random_values(count, rng);
    for (Activation act :
         {Activation::kNone, Activation::kReLU, Activation::kTanh}) {
      std::vector<double> y_ref(count), y_opt(count);
      naive().activation_forward(act, x.data(), y_ref.data(), count);
      optimized().activation_forward(act, x.data(), y_opt.data(), count);
      expect_bitwise(y_opt, y_ref, "activation_forward", count, 0, 0);

      std::vector<double> dx_ref(count), dx_opt(count);
      naive().activation_backward(act, y_ref.data(), dy.data(), dx_ref.data(),
                                  count);
      optimized().activation_backward(act, y_opt.data(), dy.data(),
                                      dx_opt.data(), count);
      expect_bitwise(dx_opt, dx_ref, "activation_backward", count, 0, 0);
    }
  }
}

TEST(KernelParity, OptimizerStepsBitwise) {
  Rng rng(707);
  for (std::size_t count : {std::size_t{1}, std::size_t{33}, std::size_t{257},
                            std::size_t{2048}}) {
    const auto grads = random_values(count, rng);
    const auto params0 = random_values(count, rng);
    {
      std::vector<double> p_ref = params0, p_opt = params0;
      std::vector<double> v_ref(count, 0.0), v_opt(count, 0.0);
      for (int step = 0; step < 3; ++step) {
        naive().sgd_step(p_ref.data(), grads.data(), v_ref.data(), count,
                         0.05, 0.9, 1e-4);
        optimized().sgd_step(p_opt.data(), grads.data(), v_opt.data(), count,
                             0.05, 0.9, 1e-4);
      }
      expect_bitwise(p_opt, p_ref, "sgd_step params", count, 0, 0);
      expect_bitwise(v_opt, v_ref, "sgd_step velocity", count, 0, 0);
    }
    for (bool decoupled : {false, true}) {
      std::vector<double> p_ref = params0, p_opt = params0;
      std::vector<double> m_ref(count, 0.0), m_opt(count, 0.0);
      std::vector<double> v_ref(count, 0.0), v_opt(count, 0.0);
      for (int step = 1; step <= 3; ++step) {
        const double bc1 = 1.0 - std::pow(0.9, step);
        const double bc2 = 1.0 - std::pow(0.999, step);
        naive().adam_step(p_ref.data(), grads.data(), m_ref.data(),
                          v_ref.data(), count, 0.001, 0.9, 0.999, bc1, bc2,
                          1e-8, 0.01, decoupled);
        optimized().adam_step(p_opt.data(), grads.data(), m_opt.data(),
                              v_opt.data(), count, 0.001, 0.9, 0.999, bc1,
                              bc2, 1e-8, 0.01, decoupled);
      }
      expect_bitwise(p_opt, p_ref, "adam_step params", count, 0, 0);
      expect_bitwise(m_opt, m_ref, "adam_step m", count, 0, 0);
      expect_bitwise(v_opt, v_ref, "adam_step v", count, 0, 0);
    }
  }
}

// ------------------------------------------------------ convolution

// A random conv geometry: batch 1-17, 1-8 channels each way, k in
// {1, 2, 3, 5}, pad 0..k-1, H != W, and inputs down to the smallest
// the kernel fits (h + 2*pad == k).
ConvShape random_conv_shape(Rng& rng) {
  constexpr std::size_t kKernels[] = {1, 2, 3, 5};
  ConvShape s;
  s.batch = static_cast<std::size_t>(rng.uniform_int(1, 17));
  s.in_c = static_cast<std::size_t>(rng.uniform_int(1, 8));
  s.out_c = static_cast<std::size_t>(rng.uniform_int(1, 8));
  s.k = kKernels[rng.uniform_int(0, 3)];
  s.pad = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(s.k) - 1));
  const auto extent = [&] {
    const std::size_t smallest = s.k > 2 * s.pad ? s.k - 2 * s.pad : 1;
    // Half the draws sit at or just past the smallest input.
    return smallest + static_cast<std::size_t>(
                          rng.bernoulli(0.5) ? rng.uniform_int(0, 1)
                                             : rng.uniform_int(0, 9));
  };
  s.h = extent();
  do {
    s.w = extent();
  } while (s.w == s.h && s.w > 1);
  return s;
}

struct ConvCase {
  ConvShape shape;
  std::vector<double> input, weight, bias, grad_out, weight_grad0, bias_grad0;
};

// random_values(), with half of its zeros turned into -0.0: a skipped
// term must leave a -0.0 accumulator as it is, and a -0.0 gradient
// must be skipped like +0.0.
std::vector<double> signed_zero_values(std::size_t n, Rng& rng) {
  std::vector<double> values = random_values(n, rng);
  for (double& v : values) {
    if (v == 0.0 && rng.bernoulli(0.5)) v = -0.0;
  }
  return values;
}

ConvCase random_conv_case(Rng& rng) {
  ConvCase c;
  c.shape = random_conv_shape(rng);
  const ConvShape& s = c.shape;
  c.input = signed_zero_values(s.batch * s.in_c * s.h * s.w, rng);
  c.weight = signed_zero_values(s.out_c * s.in_c * s.k * s.k, rng);
  c.bias = signed_zero_values(s.out_c, rng);
  c.grad_out = signed_zero_values(s.batch * s.out_c * s.oh() * s.ow(), rng);
  // Now and then a gradient of signed zeros only: every term is
  // skipped, so the -0.0 seeds below must come back as -0.0.
  if (rng.bernoulli(0.15)) {
    for (double& g : c.grad_out) g = rng.bernoulli(0.5) ? -0.0 : 0.0;
  }
  // The parameter-gradient op accumulates onto these.
  c.weight_grad0 = signed_zero_values(c.weight.size(), rng);
  c.bias_grad0 = signed_zero_values(s.out_c, rng);
  return c;
}

struct ConvResult {
  std::vector<double> out, weight_grad, bias_grad, grad_input;
};

ConvResult run_conv(const KernelBackend& backend, const ConvCase& c,
                    std::pmr::memory_resource* scratch) {
  const ConvShape& s = c.shape;
  ConvResult r;
  r.out.assign(s.batch * s.out_c * s.oh() * s.ow(), -7.0);  // overwritten
  r.grad_input.assign(c.input.size(), 5.0);                 // overwritten
  r.weight_grad = c.weight_grad0;
  r.bias_grad = c.bias_grad0;
  backend.conv2d_forward(c.input.data(), c.weight.data(), c.bias.data(),
                         r.out.data(), s, scratch);
  backend.conv2d_backward_params(c.input.data(), c.grad_out.data(),
                                 r.weight_grad.data(), r.bias_grad.data(), s,
                                 scratch);
  backend.conv2d_backward_input(c.grad_out.data(), c.weight.data(),
                                r.grad_input.data(), s, scratch);
  return r;
}

void expect_conv_bitwise(const ConvResult& got, const ConvResult& want,
                         const ConvShape& s, const char* what) {
  SCOPED_TRACE(::testing::Message()
               << what << ": batch=" << s.batch << " in_c=" << s.in_c
               << " out_c=" << s.out_c << " h=" << s.h << " w=" << s.w
               << " k=" << s.k << " pad=" << s.pad);
  expect_bitwise(got.out, want.out, "conv2d_forward", s.batch, s.k, s.out_c);
  expect_bitwise(got.weight_grad, want.weight_grad, "conv2d weight grad",
                 s.batch, s.k, s.out_c);
  expect_bitwise(got.bias_grad, want.bias_grad, "conv2d bias grad", s.batch,
                 s.k, s.out_c);
  expect_bitwise(got.grad_input, want.grad_input, "conv2d input grad",
                 s.batch, s.k, s.in_c);
}

TEST(KernelParity, Conv2dBitwiseOnSerialPath) {
  Rng rng(1001);
  Arena arena;
  for (int iter = 0; iter < kShapesPerOp; ++iter) {
    arena.reset();
    const ConvCase c = random_conv_case(rng);
    const ConvResult want =
        run_conv(naive(), c, std::pmr::get_default_resource());
    // Heap scratch (no arena attached) and arena scratch (the
    // trainer's) must both leave the result bitwise unchanged.
    expect_conv_bitwise(
        run_conv(optimized(), c, std::pmr::get_default_resource()), want,
        c.shape, "optimized (heap scratch) vs naive");
    expect_conv_bitwise(run_conv(optimized(), c, arena.resource()), want,
                        c.shape, "optimized (arena scratch) vs naive");
  }
}

// backward_params() skips only the input-gradient pass: the parameter
// gradients it leaves must match a full backward() bit for bit.
void expect_backward_params_matches(const std::function<std::unique_ptr<Layer>()>& make,
                                    const Tensor& input, const Context* ctx) {
  auto full = make();
  auto params_only = make();
  full->set_context(ctx);
  params_only->set_context(ctx);
  const Tensor out = full->forward(input);
  Rng rng(31);
  Tensor grad_out(out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] = rng.bernoulli(0.2) ? 0.0 : rng.normal();
  }
  params_only->forward(input);
  (void)full->backward(grad_out);
  params_only->backward_params(grad_out);
  std::vector<double> want(full->num_params()), got(want.size());
  full->copy_grads(want);
  params_only->copy_grads(got);
  expect_bitwise(got, want, "backward_params grads", input.size(), 0, 0);
}

TEST(KernelParity, BackwardParamsMatchesFullBackward) {
  Arena arena;
  const Context optimized_ctx{&optimized(), arena.resource()};
  for (const Context* ctx : {static_cast<const Context*>(nullptr),
                             &optimized_ctx}) {
    Rng rng(1003);
    for (int iter = 0; iter < 12; ++iter) {
      arena.reset();
      const ConvShape s = random_conv_shape(rng);
      Tensor input({s.batch, s.in_c, s.h, s.w});
      for (std::size_t i = 0; i < input.size(); ++i) input[i] = rng.normal();
      const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      expect_backward_params_matches(
          [&] {
            auto layer = std::make_unique<Conv2d>(s.in_c, s.out_c, s.k, s.pad);
            Rng init(seed);
            layer->init(init);
            return layer;
          },
          input, ctx);
      for (Activation act :
           {Activation::kNone, Activation::kReLU, Activation::kTanh}) {
        const std::size_t features = s.in_c * s.h;
        Tensor flat({s.batch, features});
        for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = rng.normal();
        expect_backward_params_matches(
            [&] {
              auto layer = std::make_unique<Linear>(features, s.out_c, act);
              Rng init(seed);
              layer->init(init);
              return layer;
            },
            flat, ctx);
      }
    }
  }
}

// ------------------------------------------------------- allocation

TEST(KernelParity, ArenaSteadyStateStopsHittingTheHeap) {
  Arena arena(1024);  // deliberately small: must warm up by growing
  const auto cycle = [&arena] {
    std::pmr::vector<double> a(512, 0.0, arena.resource());
    std::pmr::vector<double> b(2048, 1.0, arena.resource());
    std::pmr::vector<std::byte> c(4096, std::byte{0}, arena.resource());
    a[0] = b[1] = 2.0;
  };
  for (int warmup = 0; warmup < 4; ++warmup) {
    arena.reset();
    cycle();
  }
  arena.reset();
  const std::size_t settled = arena.upstream_allocations();
  for (int step = 0; step < 100; ++step) {
    arena.reset();
    cycle();
  }
  // After warmup the owned buffer covers the cycle: zero further heap
  // allocations over 100 steady-state steps.
  EXPECT_EQ(arena.upstream_allocations(), settled);
  EXPECT_GE(arena.peak_bytes(), (512 + 2048) * sizeof(double) + 4096);
}

TEST(KernelParity, ArenaResetRecyclesWithoutGrowth) {
  Arena arena(1 << 20);
  for (int step = 0; step < 50; ++step) {
    arena.reset();
    std::pmr::vector<double> v(1000, 0.5, arena.resource());
    EXPECT_GE(arena.cycle_bytes(), 1000 * sizeof(double));
  }
  EXPECT_EQ(arena.upstream_allocations(), 0u);
}

TEST(KernelParity, ContextDefaultsToNaiveSerialHeap) {
  const Context& ctx = default_context();
  EXPECT_STREQ(ctx.k().name(), "naive");
  EXPECT_EQ(ctx.resource(), std::pmr::get_default_resource());
  EXPECT_STREQ(kernel(KernelKind::kOptimized).name(), "optimized");
  EXPECT_STREQ(kernel_kind_name(KernelKind::kNaive), "naive");
  EXPECT_STREQ(kernel_kind_name(KernelKind::kOptimized), "optimized");
}

}  // namespace
}  // namespace cannikin::dnn::kernels
