// Sequential model with flat parameter/gradient access.
//
// The flat protocol is what makes the model "distributable": the
// trainer reads the flat gradient, runs the bucketized weighted
// all-reduce over it (Eq. 9), writes updated flat parameters back, and
// feeds |g_i|^2 / |g|^2 into the GNS estimators.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "dnn/layers.h"
#include "dnn/tensor.h"

namespace cannikin::dnn {

/// Per-layer gradient-ready hook: fires with the flat-gradient range a
/// layer just produced, enabling DDP-style overlap of the bucket
/// all-reduce with the rest of the backward pass.
using GradReadyFn = std::function<void(std::size_t offset, std::size_t length)>;

class Model {
 public:
  Model() = default;

  /// Appends a layer; returns *this for chaining.
  Model& add(std::unique_ptr<Layer> layer);

  /// Attaches the kernel execution context (borrowed) to every layer,
  /// present and future. Null restores the naive/heap default.
  void set_context(const kernels::Context* ctx);

  /// Initializes all parameterized layers.
  void init(Rng& rng);

  std::size_t num_params() const;

  Tensor forward(const Tensor& input);
  /// Backward from the loss gradient; accumulates parameter gradients.
  /// The first layer runs backward_params(): its input gradient would
  /// be discarded, so it is never computed.
  void backward(const Tensor& loss_grad);

  /// Backward that streams gradients out as they are produced: after
  /// each parameterized layer's backward, its gradients are copied into
  /// `flat_grads` at the layer's flat offset and `on_ready` fires with
  /// that range. Layers complete in reverse order, so ranges arrive
  /// tail-first -- exactly the order the reducer's buckets fill.
  /// `flat_grads` must have num_params() elements.
  void backward(const Tensor& loss_grad, std::span<double> flat_grads,
                const GradReadyFn& on_ready);

  void zero_grads();

  std::vector<double> flat_params() const;
  /// Allocation-free variant: `out` must have num_params() elements.
  void copy_flat_params(std::span<double> out) const;
  void set_flat_params(std::span<const double> params);
  void set_flat_params(const std::vector<double>& params) {
    set_flat_params(std::span<const double>(params));
  }
  std::vector<double> flat_grads() const;

  std::size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  const kernels::Context* ctx_ = nullptr;
  // Flat-offset scratch for the streamed backward; a member so the
  // steady state reuses its capacity instead of allocating per step.
  std::vector<std::size_t> offsets_;
};

/// A small MLP classifier: input -> hidden (ReLU) x depth -> classes.
Model make_mlp(std::size_t input_dim, std::size_t hidden_dim,
               std::size_t depth, std::size_t classes);

/// A small CNN classifier over (C, H, W) images: conv-relu-pool twice,
/// then linear. The CIFAR-10 stand-in of the training substrate.
Model make_cnn(std::size_t channels, std::size_t height, std::size_t width,
               std::size_t conv_channels, std::size_t classes);

/// An MLP regressor producing a single logit (NeuMF-style ranking
/// stand-in over concatenated user/item embeddings).
Model make_mlp_regressor(std::size_t input_dim, std::size_t hidden_dim,
                         std::size_t depth);

}  // namespace cannikin::dnn
