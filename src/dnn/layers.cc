#include "dnn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cannikin::dnn {

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features,
               kernels::Activation act)
    : in_(in_features),
      out_(out_features),
      act_(act),
      weight_(Tensor::matrix(out_features, in_features)),
      bias_(Tensor::matrix(1, out_features)),
      weight_grad_(Tensor::matrix(out_features, in_features)),
      bias_grad_(Tensor::matrix(1, out_features)) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Linear: zero-sized layer");
  }
}

Tensor Linear::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward: bad input shape");
  }
  const kernels::Context& kc = kctx();
  cached_input_.assign(input, kc.resource());
  const std::size_t batch = input.dim(0);
  Tensor out({batch, out_}, 0.0, kc.resource());
  kc.k().linear(input.data(), weight_.data(), bias_.data(), out.data(), batch,
                in_, out_, act_, kc.resource());
  if (act_ != kernels::Activation::kNone) {
    cached_output_.assign(out, kc.resource());
  }
  return out;
}

const double* Linear::accumulate_param_grads(const Tensor& grad_output,
                                             Tensor& delta) {
  // grad_output: (batch, out). Parameter gradients accumulate the sum
  // over the batch; the loss is mean-reduced, so the caller's grads are
  // already scaled by 1/batch (Eq. 1's per-sample averaging).
  const kernels::Context& kc = kctx();
  const std::size_t batch = grad_output.dim(0);
  const double* d = grad_output.data();
  if (act_ != kernels::Activation::kNone) {
    delta = Tensor({batch, out_}, 0.0, kc.resource());
    kc.k().activation_backward(act_, cached_output_.data(),
                               grad_output.data(), delta.data(),
                               grad_output.size());
    d = delta.data();
  }
  kc.k().matmul_tn_acc(d, cached_input_.data(), weight_grad_.data(), out_,
                       batch, in_);
  kc.k().col_sum_acc(d, bias_grad_.data(), batch, out_);
  return d;
}

Tensor Linear::backward(const Tensor& grad_output) {
  const kernels::Context& kc = kctx();
  Tensor delta;
  const double* d = accumulate_param_grads(grad_output, delta);
  const std::size_t batch = grad_output.dim(0);
  Tensor grad_input({batch, in_}, 0.0, kc.resource());
  kc.k().matmul_nn(d, weight_.data(), grad_input.data(), batch, out_, in_);
  return grad_input;
}

void Linear::backward_params(const Tensor& grad_output) {
  Tensor delta;
  accumulate_param_grads(grad_output, delta);
}

std::size_t Linear::num_params() const { return weight_.size() + bias_.size(); }

void Linear::copy_params(std::span<double> out) const {
  std::copy(weight_.data(), weight_.data() + weight_.size(), out.begin());
  std::copy(bias_.data(), bias_.data() + bias_.size(),
            out.begin() + static_cast<std::ptrdiff_t>(weight_.size()));
}

void Linear::set_params(std::span<const double> in) {
  std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(weight_.size()),
            weight_.data());
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(weight_.size()), in.end(),
            bias_.data());
}

void Linear::copy_grads(std::span<double> out) const {
  std::copy(weight_grad_.data(), weight_grad_.data() + weight_grad_.size(),
            out.begin());
  std::copy(bias_grad_.data(), bias_grad_.data() + bias_grad_.size(),
            out.begin() + static_cast<std::ptrdiff_t>(weight_grad_.size()));
}

void Linear::zero_grads() {
  weight_grad_.fill(0.0);
  bias_grad_.fill(0.0);
}

void Linear::init(Rng& rng) {
  // Kaiming-uniform fan-in initialization.
  const double bound = std::sqrt(6.0 / static_cast<double>(in_));
  for (std::size_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = rng.uniform(-bound, bound);
  }
  bias_.fill(0.0);
}

// ------------------------------------------------------------------ ReLU

Tensor ReLU::forward(const Tensor& input) {
  const kernels::Context& kc = kctx();
  Tensor out(input.shape(), 0.0, kc.resource());
  kc.k().activation_forward(kernels::Activation::kReLU, input.data(),
                            out.data(), input.size());
  cached_output_.assign(out, kc.resource());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  const kernels::Context& kc = kctx();
  Tensor out(grad_output.shape(), 0.0, kc.resource());
  kc.k().activation_backward(kernels::Activation::kReLU,
                             cached_output_.data(), grad_output.data(),
                             out.data(), grad_output.size());
  return out;
}

// ------------------------------------------------------------------ Tanh

Tensor Tanh::forward(const Tensor& input) {
  const kernels::Context& kc = kctx();
  Tensor out(input.shape(), 0.0, kc.resource());
  kc.k().activation_forward(kernels::Activation::kTanh, input.data(),
                            out.data(), input.size());
  cached_output_.assign(out, kc.resource());
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  const kernels::Context& kc = kctx();
  Tensor out(grad_output.shape(), 0.0, kc.resource());
  kc.k().activation_backward(kernels::Activation::kTanh, cached_output_.data(),
                             grad_output.data(), out.data(),
                             grad_output.size());
  return out;
}

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t pad)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      pad_(pad),
      weight_(Tensor({out_channels, in_channels, kernel, kernel})),
      bias_(Tensor::matrix(1, out_channels)),
      weight_grad_(Tensor({out_channels, in_channels, kernel, kernel})),
      bias_grad_(Tensor::matrix(1, out_channels)) {
  if (kernel == 0 || in_channels == 0 || out_channels == 0) {
    throw std::invalid_argument("Conv2d: zero-sized layer");
  }
}

kernels::ConvShape Conv2d::shape_of(const Tensor& input) const {
  return {input.dim(0), in_c_, out_c_, input.dim(2), input.dim(3), k_, pad_};
}

Tensor Conv2d::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2d::forward: bad input shape");
  }
  const kernels::Context& kc = kctx();
  cached_input_.assign(input, kc.resource());
  const kernels::ConvShape shape = shape_of(input);
  if (shape.h + 2 * pad_ < k_ || shape.w + 2 * pad_ < k_) {
    throw std::invalid_argument("Conv2d::forward: input smaller than kernel");
  }
  Tensor out({shape.batch, out_c_, shape.oh(), shape.ow()}, 0.0,
             kc.resource());
  kc.k().conv2d_forward(input.data(), weight_.data(), bias_.data(), out.data(),
                        shape, kc.resource());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const kernels::Context& kc = kctx();
  const kernels::ConvShape shape = shape_of(cached_input_);
  Tensor grad_input({shape.batch, in_c_, shape.h, shape.w}, 0.0,
                    kc.resource());
  kc.k().conv2d_backward_input(grad_output.data(), weight_.data(),
                               grad_input.data(), shape, kc.resource());
  return grad_input;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  const kernels::Context& kc = kctx();
  kc.k().conv2d_backward_params(cached_input_.data(), grad_output.data(),
                                weight_grad_.data(), bias_grad_.data(),
                                shape_of(cached_input_), kc.resource());
}

std::size_t Conv2d::num_params() const { return weight_.size() + bias_.size(); }

void Conv2d::copy_params(std::span<double> out) const {
  std::copy(weight_.data(), weight_.data() + weight_.size(), out.begin());
  std::copy(bias_.data(), bias_.data() + bias_.size(),
            out.begin() + static_cast<std::ptrdiff_t>(weight_.size()));
}

void Conv2d::set_params(std::span<const double> in) {
  std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(weight_.size()),
            weight_.data());
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(weight_.size()), in.end(),
            bias_.data());
}

void Conv2d::copy_grads(std::span<double> out) const {
  std::copy(weight_grad_.data(), weight_grad_.data() + weight_grad_.size(),
            out.begin());
  std::copy(bias_grad_.data(), bias_grad_.data() + bias_grad_.size(),
            out.begin() + static_cast<std::ptrdiff_t>(weight_grad_.size()));
}

void Conv2d::zero_grads() {
  weight_grad_.fill(0.0);
  bias_grad_.fill(0.0);
}

void Conv2d::init(Rng& rng) {
  const double fan_in = static_cast<double>(in_c_ * k_ * k_);
  const double bound = std::sqrt(6.0 / fan_in);
  for (std::size_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = rng.uniform(-bound, bound);
  }
  bias_.fill(0.0);
}

// ------------------------------------------------------------ AvgPool2x2

Tensor AvgPool2x2::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(2) % 2 != 0 || input.dim(3) % 2 != 0) {
    throw std::invalid_argument("AvgPool2x2: need even (batch,C,H,W)");
  }
  std::copy(input.shape().begin(), input.shape().end(),
            cached_shape_.begin());
  const std::size_t batch = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  Tensor out({batch, c, h / 2, w / 2}, 0.0, mr());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < h / 2; ++y) {
        for (std::size_t x = 0; x < w / 2; ++x) {
          double total = 0.0;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              total += input[((n * c + ch) * h + 2 * y + dy) * w + 2 * x + dx];
            }
          }
          out[((n * c + ch) * (h / 2) + y) * (w / 2) + x] = total / 4.0;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2x2::backward(const Tensor& grad_output) {
  const std::size_t batch = cached_shape_[0], c = cached_shape_[1],
                    h = cached_shape_[2], w = cached_shape_[3];
  Tensor grad_input({batch, c, h, w}, 0.0, mr());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < h / 2; ++y) {
        for (std::size_t x = 0; x < w / 2; ++x) {
          const double g =
              grad_output[((n * c + ch) * (h / 2) + y) * (w / 2) + x] / 4.0;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              grad_input[((n * c + ch) * h + 2 * y + dy) * w + 2 * x + dx] = g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// --------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input) {
  cached_rank_ = input.rank();
  std::copy(input.shape().begin(), input.shape().end(),
            cached_shape_.begin());
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.size() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(
      std::span<const std::size_t>(cached_shape_.data(), cached_rank_));
}

}  // namespace cannikin::dnn
