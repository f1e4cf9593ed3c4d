// Neural-network layers with explicit backward passes.
//
// Layers cache whatever the backward pass needs during forward. Each
// parameterized layer owns its parameters and gradient accumulators and
// exposes them through a flat span protocol so the model can assemble
// the flat gradient vector that the bucketized all-reduce and the GNS
// estimators consume.
//
// Compute dispatches through a borrowed kernels::Context (backend +
// workspace memory resource) attached via set_context(); with no
// context attached every layer runs the naive reference kernels on the
// heap, preserving the original semantics.
// Parameters and gradient accumulators always live on the heap (they
// persist across steps); only per-step activations/caches go to the
// context's resource, and a cache written before an Arena::reset() is
// never read after it (forward always re-assigns before backward).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "dnn/kernels/kernels.h"
#include "dnn/tensor.h"

namespace cannikin::dnn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; caches activations needed by backward.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass: receives dLoss/dOutput, accumulates parameter
  /// gradients, returns dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Backward for the first layer, whose dLoss/dInput nobody reads:
  /// accumulates the same parameter gradients as backward(). The
  /// default runs backward() and drops its result; layers whose input
  /// gradient is a pass of its own override it to skip that pass.
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  virtual std::size_t num_params() const { return 0; }
  virtual void copy_params(std::span<double> out) const { (void)out; }
  virtual void set_params(std::span<const double> in) { (void)in; }
  virtual void copy_grads(std::span<double> out) const { (void)out; }
  virtual void zero_grads() {}
  virtual void init(Rng& rng) { (void)rng; }

  /// Attaches the execution context (borrowed; must outlive the layer's
  /// use of it). Null restores the naive/heap default.
  void set_context(const kernels::Context* ctx) { ctx_ = ctx; }

 protected:
  const kernels::Context& kctx() const { return kernels::ctx_or_default(ctx_); }
  std::pmr::memory_resource* mr() const { return kctx().resource(); }

 private:
  const kernels::Context* ctx_ = nullptr;
};

/// Fully connected layer: Y = act(X W^T + bias), X is (batch, in).
/// The activation epilogue (default kNone) is fused into the forward
/// kernel; backward folds the activation derivative into the incoming
/// gradient before the parameter-gradient GEMMs.
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         kernels::Activation act = kernels::Activation::kNone);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::size_t num_params() const override;
  void copy_params(std::span<double> out) const override;
  void set_params(std::span<const double> in) override;
  void copy_grads(std::span<double> out) const override;
  void zero_grads() override;
  void init(Rng& rng) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  kernels::Activation activation() const { return act_; }

 private:
  std::size_t in_;
  std::size_t out_;
  kernels::Activation act_;
  Tensor weight_;       // (out, in)
  Tensor bias_;         // (1, out)
  Tensor weight_grad_;  // accumulated mean-of-batch gradient
  Tensor bias_grad_;
  Tensor cached_input_;
  Tensor cached_output_;  // post-activation; only cached when fused
  // Accumulates the parameter gradients and returns the gradient at
  // the pre-activation, held in `delta` when an activation is fused.
  const double* accumulate_param_grads(const Tensor& grad_output,
                                       Tensor& delta);
};

/// Elementwise rectifier.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

/// Elementwise hyperbolic tangent (used by the NeuMF-style model).
class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

/// 2-D convolution over (batch, C, H, W) tensors, stride 1, zero
/// padding `pad`. The three passes are KernelBackend conv ops.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t pad = 0);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::size_t num_params() const override;
  void copy_params(std::span<double> out) const override;
  void set_params(std::span<const double> in) override;
  void copy_grads(std::span<double> out) const override;
  void zero_grads() override;
  void init(Rng& rng) override;

 private:
  std::size_t in_c_, out_c_, k_, pad_;
  Tensor weight_;  // (out_c, in_c, k, k)
  Tensor bias_;    // (1, out_c)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;

  kernels::ConvShape shape_of(const Tensor& input) const;
};

/// Average pool 2x2 over (batch, C, H, W); H and W must be even.
class AvgPool2x2 : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::array<std::size_t, 4> cached_shape_{};
};

/// Flattens (batch, ...) to (batch, features).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::array<std::size_t, Tensor::kMaxRank> cached_shape_{};
  std::size_t cached_rank_ = 0;
};

}  // namespace cannikin::dnn
