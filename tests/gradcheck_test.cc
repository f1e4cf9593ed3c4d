// Central finite-difference gradient checks for every layer, run under
// both kernel backends. The loss is sum(output * probe) for a fixed
// random probe, which exercises arbitrary upstream gradients; analytic
// parameter gradients come from copy_grads(), analytic input gradients
// from the tensor backward() returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dnn/kernels/arena.h"
#include "dnn/kernels/kernels.h"
#include "dnn/layers.h"
#include "dnn/layers_extra.h"

namespace cannikin::dnn {
namespace {

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-4;

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.normal();
  return t;
}

double probe_loss(Layer& layer, const Tensor& x, const Tensor& probe) {
  const Tensor out = layer.forward(x);
  double total = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) total += out[i] * probe[i];
  return total;
}

// Checks dLoss/dParams (when the layer has parameters) and optionally
// dLoss/dInput against central differences. `ctx` may be null (naive
// reference) or point at an optimized-backend context.
void check_layer(Layer& layer, const Tensor& input,
                 const kernels::Context* ctx, bool check_input = true) {
  layer.set_context(ctx);
  Rng prng(99);
  Tensor probe = layer.forward(input);
  for (std::size_t i = 0; i < probe.size(); ++i) probe[i] = prng.normal();

  layer.zero_grads();
  layer.forward(input);
  const Tensor analytic_input = layer.backward(probe);

  if (layer.num_params() > 0) {
    std::vector<double> analytic(layer.num_params());
    layer.copy_grads(analytic);
    std::vector<double> params(layer.num_params());
    layer.copy_params(params);
    const std::size_t stride =
        std::max<std::size_t>(1, params.size() / 25);  // probe ~25 params
    for (std::size_t p = 0; p < params.size(); p += stride) {
      std::vector<double> bumped = params;
      bumped[p] += kEps;
      layer.set_params(bumped);
      const double up = probe_loss(layer, input, probe);
      bumped[p] -= 2 * kEps;
      layer.set_params(bumped);
      const double down = probe_loss(layer, input, probe);
      layer.set_params(params);
      EXPECT_NEAR(analytic[p], (up - down) / (2 * kEps), kTol)
          << "param " << p;
    }
  }

  if (check_input) {
    const std::size_t stride =
        std::max<std::size_t>(1, input.size() / 20);
    for (std::size_t i = 0; i < input.size(); i += stride) {
      Tensor bumped = input;
      bumped[i] += kEps;
      const double up = probe_loss(layer, bumped, probe);
      bumped[i] -= 2 * kEps;
      const double down = probe_loss(layer, bumped, probe);
      EXPECT_NEAR(analytic_input[i], (up - down) / (2 * kEps), kTol)
          << "input " << i;
    }
  }
  layer.set_context(nullptr);
}

// Every check runs twice: against the naive reference semantics and
// against the optimized backend with an arena-backed workspace.
template <typename MakeLayer, typename MakeInput>
void check_under_both_backends(MakeLayer make_layer, MakeInput make_input,
                               bool check_input = true) {
  {
    auto layer = make_layer();
    check_layer(*layer, make_input(), nullptr, check_input);
  }
  {
    kernels::Arena arena;
    const kernels::Context ctx{
        &kernels::kernel(kernels::KernelKind::kOptimized), arena.resource()};
    auto layer = make_layer();
    check_layer(*layer, make_input(), &ctx, check_input);
  }
}

TEST(GradCheck, LinearPlain) {
  check_under_both_backends(
      [] {
        Rng rng(1);
        auto layer = std::make_unique<Linear>(5, 4);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(11);
        return random_tensor({3, 5}, rng);
      });
}

TEST(GradCheck, LinearFusedReLU) {
  check_under_both_backends(
      [] {
        Rng rng(2);
        auto layer =
            std::make_unique<Linear>(6, 5, kernels::Activation::kReLU);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(12);
        return random_tensor({4, 6}, rng);
      });
}

TEST(GradCheck, LinearFusedTanh) {
  check_under_both_backends(
      [] {
        Rng rng(3);
        auto layer =
            std::make_unique<Linear>(4, 7, kernels::Activation::kTanh);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(13);
        return random_tensor({3, 4}, rng);
      });
}

TEST(GradCheck, LinearBatchOne) {
  check_under_both_backends(
      [] {
        Rng rng(4);
        auto layer =
            std::make_unique<Linear>(9, 3, kernels::Activation::kReLU);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(14);
        return random_tensor({1, 9}, rng);
      });
}

TEST(GradCheck, ReLUStandalone) {
  check_under_both_backends([] { return std::make_unique<ReLU>(); },
                            [] {
                              Rng rng(15);
                              return random_tensor({4, 6}, rng);
                            });
}

TEST(GradCheck, TanhStandalone) {
  check_under_both_backends([] { return std::make_unique<Tanh>(); },
                            [] {
                              Rng rng(16);
                              return random_tensor({4, 6}, rng);
                            });
}

TEST(GradCheck, Conv2dValid) {
  check_under_both_backends(
      [] {
        Rng rng(5);
        auto layer = std::make_unique<Conv2d>(2, 3, 3, 0);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(17);
        return random_tensor({2, 2, 5, 5}, rng);
      });
}

TEST(GradCheck, Conv2dSamePadding) {
  check_under_both_backends(
      [] {
        Rng rng(6);
        auto layer = std::make_unique<Conv2d>(2, 3, 3, 1);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(18);
        return random_tensor({2, 2, 6, 6}, rng);
      });
}

TEST(GradCheck, Conv2dPointwiseNonSquare) {
  check_under_both_backends(
      [] {
        Rng rng(7);
        auto layer = std::make_unique<Conv2d>(3, 2, 1, 0);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(19);
        return random_tensor({2, 3, 4, 5}, rng);
      });
}

TEST(GradCheck, Conv2dFiveByFivePadTwoNonSquare) {
  check_under_both_backends(
      [] {
        Rng rng(8);
        auto layer = std::make_unique<Conv2d>(2, 3, 5, 2);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(20);
        return random_tensor({2, 2, 6, 7}, rng);
      });
}

TEST(GradCheck, AvgPool) {
  check_under_both_backends([] { return std::make_unique<AvgPool2x2>(); },
                            [] {
                              Rng rng(19);
                              return random_tensor({2, 3, 4, 4}, rng);
                            });
}

TEST(GradCheck, MaxPool) {
  check_under_both_backends(
      [] { return std::make_unique<MaxPool2x2>(); },
      [] {
        // Distinct values: a finite-difference bump must never flip
        // the argmax, which would make the loss non-differentiable.
        Rng rng(20);
        Tensor t({2, 2, 4, 4});
        std::vector<std::size_t> order(t.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        for (std::size_t i = 0; i < t.size(); ++i) {
          t[i] = static_cast<double>(order[i]) * 0.1;
        }
        return t;
      });
}

TEST(GradCheck, Flatten) {
  check_under_both_backends([] { return std::make_unique<Flatten>(); },
                            [] {
                              Rng rng(21);
                              return random_tensor({2, 3, 2, 2}, rng);
                            });
}

TEST(GradCheck, EmbeddingParamsOnly) {
  // Ids are not differentiable: parameter gradients only.
  check_under_both_backends(
      [] {
        Rng rng(7);
        auto layer = std::make_unique<Embedding>(6, 3);
        layer->init(rng);
        return layer;
      },
      [] {
        Tensor ids = Tensor::matrix(2, 2);
        ids.at(0, 0) = 1;
        ids.at(0, 1) = 4;
        ids.at(1, 0) = 4;  // repeated row: accumulated gradient
        ids.at(1, 1) = 0;
        return ids;
      },
      /*check_input=*/false);
}

TEST(GradCheck, LayerNorm) {
  check_under_both_backends(
      [] {
        Rng rng(8);
        auto layer = std::make_unique<LayerNorm>(6);
        layer->init(rng);
        return layer;
      },
      [] {
        Rng rng(22);
        return random_tensor({3, 6}, rng);
      });
}

TEST(GradCheck, DropoutEvalIsIdentity) {
  check_under_both_backends(
      [] {
        auto layer = std::make_unique<Dropout>(0.4, 5);
        layer->set_training(false);
        return layer;
      },
      [] {
        Rng rng(23);
        return random_tensor({3, 5}, rng);
      });
}

TEST(GradCheck, DropoutTrainingMask) {
  // The training-mode rng advances per forward, so finite differences
  // rebuild a fresh layer (same seed -> same mask) per evaluation.
  Rng rng(24);
  const Tensor input = random_tensor({3, 5}, rng);
  Dropout analytic_layer(0.4, 77);
  Tensor probe = analytic_layer.forward(input);
  Rng prng(99);
  for (std::size_t i = 0; i < probe.size(); ++i) probe[i] = prng.normal();

  Dropout fresh(0.4, 77);
  fresh.forward(input);
  const Tensor analytic = fresh.backward(probe);

  auto loss_at = [&](const Tensor& x) {
    Dropout layer(0.4, 77);
    const Tensor out = layer.forward(x);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) total += out[i] * probe[i];
    return total;
  };
  for (std::size_t i = 0; i < input.size(); ++i) {
    Tensor bumped = input;
    bumped[i] += kEps;
    const double up = loss_at(bumped);
    bumped[i] -= 2 * kEps;
    const double down = loss_at(bumped);
    EXPECT_NEAR(analytic[i], (up - down) / (2 * kEps), kTol) << "input " << i;
  }
}

}  // namespace
}  // namespace cannikin::dnn
