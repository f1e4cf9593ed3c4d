// Compute-kernel layer for the DNN training substrate.
//
// One KernelBackend interface, two implementations:
//   * kNaive     -- the original scalar loops, retained verbatim as the
//                   reference semantics (and the reference the parity
//                   fuzzer checks against).
//   * kOptimized -- cache-blocked, vectorization-friendly loops with
//                   fused linear+bias+activation epilogues and
//                   register-tiled convolutions.
//
// Determinism contract (see DESIGN.md "Compute kernels"): the
// optimized kernels preserve the naive per-element accumulation order
// exactly, so results are BITWISE identical to the reference --
// flipping the backend never changes a training trajectory. Every op
// runs serially on the calling rank thread.
#pragma once

#include <cstddef>
#include <memory_resource>

namespace cannikin::dnn::kernels {

/// Activation fused into Linear's epilogue (and used standalone by the
/// elementwise layers).
enum class Activation { kNone, kReLU, kTanh };

enum class KernelKind { kNaive, kOptimized };

/// Geometry of a stride-1 2-D convolution over NCHW tensors with `pad`
/// zero cells on every border: input (batch, in_c, h, w), weight
/// (out_c, in_c, k, k), output (batch, out_c, oh(), ow()). Requires
/// h + 2*pad >= k and w + 2*pad >= k.
struct ConvShape {
  std::size_t batch = 0, in_c = 0, out_c = 0, h = 0, w = 0, k = 0, pad = 0;

  std::size_t oh() const { return h + 2 * pad - k + 1; }
  std::size_t ow() const { return w + 2 * pad - k + 1; }
};

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;
  virtual const char* name() const = 0;

  /// C(m,n) = A(m,k) * B(k,n); C is overwritten.
  virtual void matmul_nn(const double* a, const double* b, double* c,
                         std::size_t m, std::size_t k,
                         std::size_t n) const = 0;

  /// C(m,n) = act(A(m,k) * W(n,k)^T [+ bias]); C is overwritten.
  /// bias (length n) may be null; act == kNone with null bias is a
  /// plain matmul_transposed. `scratch` backs packing buffers and must
  /// not be null (pass std::pmr::get_default_resource() when no arena
  /// is threaded through).
  virtual void linear(const double* a, const double* w, const double* bias,
                      double* c, std::size_t m, std::size_t k, std::size_t n,
                      Activation act,
                      std::pmr::memory_resource* scratch) const = 0;

  /// C(m,n) += A(k,m)^T * B(k,n)  (accumulating transposed_matmul; the
  /// Linear weight-gradient update).
  virtual void matmul_tn_acc(const double* a, const double* b, double* c,
                             std::size_t m, std::size_t k,
                             std::size_t n) const = 0;

  /// out[j] += sum_r a(r,j) over an (m,n) matrix (bias gradient).
  virtual void col_sum_acc(const double* a, double* out, std::size_t m,
                           std::size_t n) const = 0;

  /// y = act(x) elementwise over count values (kNone copies).
  virtual void activation_forward(Activation act, const double* x, double* y,
                                  std::size_t count) const = 0;

  /// dx = dy * act'(y) where y is the cached *post*-activation output
  /// (kReLU: y <= 0 gates; kTanh: 1 - y^2; kNone copies dy).
  virtual void activation_backward(Activation act, const double* y,
                                   const double* dy, double* dx,
                                   std::size_t count) const = 0;

  /// out = conv(input, weight) + bias; out is overwritten. Each output
  /// element sums bias first, then its (ic, ky, kx) terms ascending,
  /// with out-of-bounds input cells read as 0.0. `scratch` as in linear.
  virtual void conv2d_forward(const double* input, const double* weight,
                              const double* bias, double* out,
                              const ConvShape& shape,
                              std::pmr::memory_resource* scratch) const = 0;

  /// weight_grad += dL/dW and bias_grad += dL/db, accumulating onto
  /// the existing values. Each accumulator takes its terms in (n, oy,
  /// ox) ascending order, skipping zero grad_out values and taps that
  /// fall on the padding.
  virtual void conv2d_backward_params(const double* input,
                                      const double* grad_out,
                                      double* weight_grad, double* bias_grad,
                                      const ConvShape& shape,
                                      std::pmr::memory_resource* scratch)
      const = 0;

  /// grad_input = dL/dInput; grad_input is overwritten. Each input cell
  /// sums its terms in (oc, oy, ox) ascending order from 0.0, skipping
  /// zero grad_out values.
  virtual void conv2d_backward_input(const double* grad_out,
                                     const double* weight, double* grad_input,
                                     const ConvShape& shape,
                                     std::pmr::memory_resource* scratch)
      const = 0;

  /// SGD with momentum and (coupled) weight decay, in place.
  virtual void sgd_step(double* params, const double* grads, double* velocity,
                        std::size_t count, double lr, double momentum,
                        double weight_decay) const = 0;

  /// Adam/AdamW in place; bc1/bc2 are the bias-correction denominators
  /// 1 - beta^t, `decoupled` selects AdamW-style weight decay.
  virtual void adam_step(double* params, const double* grads, double* m,
                         double* v, std::size_t count, double lr, double beta1,
                         double beta2, double bc1, double bc2, double eps,
                         double weight_decay, bool decoupled) const = 0;
};

/// Process-lifetime singleton for each kind.
const KernelBackend& kernel(KernelKind kind);
const char* kernel_kind_name(KernelKind kind);

/// Execution context threaded through Tensor/layers/loss/optimizer: the
/// backend and the workspace memory resource (null = heap). One per
/// rank thread; borrowed, never owned by the layers it is handed to.
struct Context {
  const KernelBackend* backend = nullptr;  ///< null = naive reference
  std::pmr::memory_resource* memory = nullptr;

  const KernelBackend& k() const {
    return backend != nullptr ? *backend : kernel(KernelKind::kNaive);
  }
  std::pmr::memory_resource* resource() const {
    return memory != nullptr ? memory : std::pmr::get_default_resource();
  }
};

/// Naive backend, heap memory -- the reference semantics every
/// layer falls back to when no context is attached.
const Context& default_context();

inline const Context& ctx_or_default(const Context* ctx) {
  return ctx != nullptr ? *ctx : default_context();
}

}  // namespace cannikin::dnn::kernels
