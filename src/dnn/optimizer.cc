#include "dnn/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace cannikin::dnn {

Sgd::Sgd(double momentum, double weight_decay)
    : momentum_(momentum), weight_decay_(weight_decay) {
  if (momentum < 0.0 || momentum >= 1.0) {
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
  }
}

void Sgd::step(std::span<double> params, std::span<const double> grads,
               double lr, const kernels::Context* ctx) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Sgd::step: size mismatch");
  }
  if (velocity_.size() != params.size()) {
    velocity_.assign(params.size(), 0.0);
  }
  const kernels::Context& kc = kernels::ctx_or_default(ctx);
  kc.k().sgd_step(params.data(), grads.data(), velocity_.data(), params.size(),
                  lr, momentum_, weight_decay_);
}

void Sgd::reset() { velocity_.clear(); }

OptimizerState Sgd::state() const {
  OptimizerState state;
  state.slots = {velocity_};
  return state;
}

void Sgd::set_state(const OptimizerState& state) {
  if (state.slots.size() != 1) {
    throw std::invalid_argument("Sgd::set_state: expected 1 slot vector");
  }
  velocity_ = state.slots[0];
}

Adam::Adam(double beta1, double beta2, double eps, double weight_decay,
           bool decoupled)
    : beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      decoupled_(decoupled) {}

void Adam::step(std::span<double> params, std::span<const double> grads,
                double lr, const kernels::Context* ctx) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Adam::step: size mismatch");
  }
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const kernels::Context& kc = kernels::ctx_or_default(ctx);
  kc.k().adam_step(params.data(), grads.data(), m_.data(), v_.data(),
                   params.size(), lr, beta1_, beta2_, bc1, bc2, eps_,
                   weight_decay_, decoupled_);
}

void Adam::reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

OptimizerState Adam::state() const {
  OptimizerState state;
  state.slots = {m_, v_};
  state.step_count = t_;
  return state;
}

void Adam::set_state(const OptimizerState& state) {
  if (state.slots.size() != 2 ||
      state.slots[0].size() != state.slots[1].size()) {
    throw std::invalid_argument(
        "Adam::set_state: expected matching m/v slot vectors");
  }
  if (state.step_count < 0) {
    throw std::invalid_argument("Adam::set_state: negative step count");
  }
  m_ = state.slots[0];
  v_ = state.slots[1];
  t_ = state.step_count;
}

double scaled_lr(LrScaling scaling, double base_lr, double total_batch,
                 double initial_batch, double gns) {
  if (total_batch <= 0.0 || initial_batch <= 0.0) {
    throw std::invalid_argument("scaled_lr: batches must be positive");
  }
  const double ratio = total_batch / initial_batch;
  switch (scaling) {
    case LrScaling::kNone:
      return base_lr;
    case LrScaling::kLinear:
      return base_lr * ratio;
    case LrScaling::kSquareRoot:
      return base_lr * std::sqrt(ratio);
    case LrScaling::kAdaScale: {
      // AdaScale's gain: the expected per-step progress of the larger
      // batch relative to b0, bounded by ratio and approaching 1 when
      // the noise scale is small relative to the batch.
      const double noise = std::max(gns, 0.0);
      const double gain =
          ratio * (noise + initial_batch) / (noise + total_batch);
      return base_lr * std::max(gain, 1.0);
    }
  }
  return base_lr;
}

}  // namespace cannikin::dnn
