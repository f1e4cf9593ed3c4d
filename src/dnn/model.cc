#include "dnn/model.h"

#include <stdexcept>

namespace cannikin::dnn {

Model& Model::add(std::unique_ptr<Layer> layer) {
  layer->set_context(ctx_);
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::set_context(const kernels::Context* ctx) {
  ctx_ = ctx;
  for (auto& layer : layers_) layer->set_context(ctx);
}

void Model::init(Rng& rng) {
  for (auto& layer : layers_) layer->init(rng);
}

std::size_t Model::num_params() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->num_params();
  return total;
}

Tensor Model::forward(const Tensor& input) {
  if (layers_.empty()) return input;
  Tensor current = layers_.front()->forward(input);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    current = layers_[i]->forward(current);
  }
  return current;
}

void Model::backward(const Tensor& loss_grad) {
  const Tensor* upstream = &loss_grad;
  Tensor current;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i == 0) {
      layers_[i]->backward_params(*upstream);
    } else {
      current = layers_[i]->backward(*upstream);
      upstream = &current;
    }
  }
}

void Model::backward(const Tensor& loss_grad, std::span<double> flat_grads,
                     const GradReadyFn& on_ready) {
  if (flat_grads.size() != num_params()) {
    throw std::invalid_argument("backward: flat gradient size mismatch");
  }
  offsets_.resize(layers_.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    offsets_[i] = offset;
    offset += layers_[i]->num_params();
  }
  const Tensor* upstream = &loss_grad;
  Tensor current;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i == 0) {
      layers_[i]->backward_params(*upstream);
    } else {
      current = layers_[i]->backward(*upstream);
      upstream = &current;
    }
    const std::size_t n = layers_[i]->num_params();
    if (n == 0) continue;
    layers_[i]->copy_grads({flat_grads.data() + offsets_[i], n});
    if (on_ready) on_ready(offsets_[i], n);
  }
}

void Model::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

std::vector<double> Model::flat_params() const {
  std::vector<double> out(num_params());
  copy_flat_params(out);
  return out;
}

void Model::copy_flat_params(std::span<double> out) const {
  if (out.size() != num_params()) {
    throw std::invalid_argument("copy_flat_params: size mismatch");
  }
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->num_params();
    if (n == 0) continue;
    layer->copy_params({out.data() + offset, n});
    offset += n;
  }
}

void Model::set_flat_params(std::span<const double> params) {
  if (params.size() != num_params()) {
    throw std::invalid_argument("set_flat_params: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t n = layer->num_params();
    if (n == 0) continue;
    layer->set_params({params.data() + offset, n});
    offset += n;
  }
}

std::vector<double> Model::flat_grads() const {
  std::vector<double> out(num_params());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->num_params();
    if (n == 0) continue;
    layer->copy_grads({out.data() + offset, n});
    offset += n;
  }
  return out;
}

Model make_mlp(std::size_t input_dim, std::size_t hidden_dim,
               std::size_t depth, std::size_t classes) {
  Model model;
  std::size_t in = input_dim;
  for (std::size_t i = 0; i < depth; ++i) {
    // Fused linear+ReLU: same parameters, init order and gradient
    // layout as the former Linear/ReLU pair (ReLU had no params), one
    // kernel launch instead of two.
    model.add(
        std::make_unique<Linear>(in, hidden_dim, kernels::Activation::kReLU));
    in = hidden_dim;
  }
  model.add(std::make_unique<Linear>(in, classes));
  return model;
}

Model make_cnn(std::size_t channels, std::size_t height, std::size_t width,
               std::size_t conv_channels, std::size_t classes) {
  if (height % 4 != 0 || width % 4 != 0) {
    throw std::invalid_argument("make_cnn: H and W must be multiples of 4");
  }
  Model model;
  model.add(std::make_unique<Conv2d>(channels, conv_channels, 3, 1));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<AvgPool2x2>());
  model.add(std::make_unique<Conv2d>(conv_channels, conv_channels, 3, 1));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<AvgPool2x2>());
  model.add(std::make_unique<Flatten>());
  model.add(std::make_unique<Linear>(
      conv_channels * (height / 4) * (width / 4), classes));
  return model;
}

Model make_mlp_regressor(std::size_t input_dim, std::size_t hidden_dim,
                         std::size_t depth) {
  Model model;
  std::size_t in = input_dim;
  for (std::size_t i = 0; i < depth; ++i) {
    model.add(
        std::make_unique<Linear>(in, hidden_dim, kernels::Activation::kTanh));
    in = hidden_dim;
  }
  model.add(std::make_unique<Linear>(in, 1));
  return model;
}

}  // namespace cannikin::dnn
