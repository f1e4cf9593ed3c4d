// Reference kernel backend: the original scalar loops, transplanted
// unchanged from tensor.cc / layers.cc / optimizer.cc. This TU is the
// semantic ground truth the conformance suite compares against --
// do not "improve" these loops; change the optimized backend instead.
//
// Compiled with -ffp-contract=off so the compiler cannot fuse
// multiply-adds and silently change rounding between backends.
#include <cmath>
#include <cstring>

#include "dnn/kernels/backends.h"

namespace cannikin::dnn::kernels {
namespace {

class NaiveKernel final : public KernelBackend {
 public:
  const char* name() const override { return "naive"; }

  void matmul_nn(const double* a, const double* b, double* c, std::size_t m,
                 std::size_t k, std::size_t n) const override {
    std::memset(c, 0, m * n * sizeof(double));
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double v = a[r * k + kk];
        if (v == 0.0) continue;
        const double* brow = b + kk * n;
        double* crow = c + r * n;
        for (std::size_t col = 0; col < n; ++col) crow[col] += v * brow[col];
      }
    }
  }

  void linear(const double* a, const double* w, const double* bias, double* c,
              std::size_t m, std::size_t k, std::size_t n, Activation act,
              std::pmr::memory_resource* /*scratch*/) const override {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        double total = 0.0;
        const double* arow = a + r * k;
        const double* wrow = w + col * k;
        for (std::size_t kk = 0; kk < k; ++kk) total += arow[kk] * wrow[kk];
        if (bias != nullptr) total += bias[col];
        c[r * n + col] = apply(act, total);
      }
    }
  }

  void matmul_tn_acc(const double* a, const double* b, double* c,
                     std::size_t m, std::size_t k,
                     std::size_t n) const override {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double* arow = a + kk * m;
      const double* brow = b + kk * n;
      for (std::size_t r = 0; r < m; ++r) {
        const double v = arow[r];
        if (v == 0.0) continue;
        double* crow = c + r * n;
        for (std::size_t col = 0; col < n; ++col) crow[col] += v * brow[col];
      }
    }
  }

  void col_sum_acc(const double* a, double* out, std::size_t m,
                   std::size_t n) const override {
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * n;
      for (std::size_t col = 0; col < n; ++col) out[col] += arow[col];
    }
  }

  void activation_forward(Activation act, const double* x, double* y,
                          std::size_t count) const override {
    for (std::size_t i = 0; i < count; ++i) y[i] = apply(act, x[i]);
  }

  void activation_backward(Activation act, const double* y, const double* dy,
                           double* dx, std::size_t count) const override {
    switch (act) {
      case Activation::kNone:
        for (std::size_t i = 0; i < count; ++i) dx[i] = dy[i];
        break;
      case Activation::kReLU:
        // y <= 0 iff the pre-activation input was <= 0, so gating on
        // the cached output matches the original input-mask semantics
        // bitwise.
        for (std::size_t i = 0; i < count; ++i) {
          dx[i] = y[i] <= 0.0 ? 0.0 : dy[i];
        }
        break;
      case Activation::kTanh:
        for (std::size_t i = 0; i < count; ++i) {
          dx[i] = dy[i] * (1.0 - y[i] * y[i]);
        }
        break;
    }
  }

  // The three conv ops are Conv2d's original loops.
  void conv2d_forward(const double* input, const double* weight,
                      const double* bias, double* out, const ConvShape& s,
                      std::pmr::memory_resource* /*scratch*/) const override {
    const std::size_t batch = s.batch, in_c = s.in_c, out_c = s.out_c,
                      h = s.h, w = s.w, k = s.k, pad = s.pad;
    const std::size_t oh = s.oh(), ow = s.ow();
    auto in_at = [&](std::size_t n, std::size_t c, long y, long x) -> double {
      if (y < 0 || x < 0 || y >= static_cast<long>(h) ||
          x >= static_cast<long>(w)) {
        return 0.0;
      }
      return input[((n * in_c + c) * h + static_cast<std::size_t>(y)) * w +
                   static_cast<std::size_t>(x)];
    };
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            double total = bias[oc];
            for (std::size_t ic = 0; ic < in_c; ++ic) {
              for (std::size_t ky = 0; ky < k; ++ky) {
                for (std::size_t kx = 0; kx < k; ++kx) {
                  total += weight[((oc * in_c + ic) * k + ky) * k + kx] *
                           in_at(n, ic,
                                 static_cast<long>(oy + ky) -
                                     static_cast<long>(pad),
                                 static_cast<long>(ox + kx) -
                                     static_cast<long>(pad));
                }
              }
            }
            out[((n * out_c + oc) * oh + oy) * ow + ox] = total;
          }
        }
      }
    }
  }

  void conv2d_backward_params(const double* input, const double* grad_out,
                              double* weight_grad, double* bias_grad,
                              const ConvShape& s,
                              std::pmr::memory_resource* /*scratch*/)
      const override {
    const std::size_t batch = s.batch, in_c = s.in_c, out_c = s.out_c,
                      h = s.h, w = s.w, k = s.k, pad = s.pad;
    const std::size_t oh = s.oh(), ow = s.ow();
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const double g = grad_out[((n * out_c + oc) * oh + oy) * ow + ox];
            if (g == 0.0) continue;
            bias_grad[oc] += g;
            for (std::size_t ic = 0; ic < in_c; ++ic) {
              for (std::size_t ky = 0; ky < k; ++ky) {
                const long y =
                    static_cast<long>(oy + ky) - static_cast<long>(pad);
                if (y < 0 || y >= static_cast<long>(h)) continue;
                for (std::size_t kx = 0; kx < k; ++kx) {
                  const long x =
                      static_cast<long>(ox + kx) - static_cast<long>(pad);
                  if (x < 0 || x >= static_cast<long>(w)) continue;
                  const std::size_t in_idx =
                      ((n * in_c + ic) * h + static_cast<std::size_t>(y)) *
                          w +
                      static_cast<std::size_t>(x);
                  weight_grad[((oc * in_c + ic) * k + ky) * k + kx] +=
                      g * input[in_idx];
                }
              }
            }
          }
        }
      }
    }
  }

  void conv2d_backward_input(const double* grad_out, const double* weight,
                             double* grad_input, const ConvShape& s,
                             std::pmr::memory_resource* /*scratch*/)
      const override {
    const std::size_t batch = s.batch, in_c = s.in_c, out_c = s.out_c,
                      h = s.h, w = s.w, k = s.k, pad = s.pad;
    const std::size_t oh = s.oh(), ow = s.ow();
    std::memset(grad_input, 0, batch * in_c * h * w * sizeof(double));
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const double g = grad_out[((n * out_c + oc) * oh + oy) * ow + ox];
            if (g == 0.0) continue;
            for (std::size_t ic = 0; ic < in_c; ++ic) {
              for (std::size_t ky = 0; ky < k; ++ky) {
                const long y =
                    static_cast<long>(oy + ky) - static_cast<long>(pad);
                if (y < 0 || y >= static_cast<long>(h)) continue;
                for (std::size_t kx = 0; kx < k; ++kx) {
                  const long x =
                      static_cast<long>(ox + kx) - static_cast<long>(pad);
                  if (x < 0 || x >= static_cast<long>(w)) continue;
                  const std::size_t in_idx =
                      ((n * in_c + ic) * h + static_cast<std::size_t>(y)) *
                          w +
                      static_cast<std::size_t>(x);
                  grad_input[in_idx] +=
                      g * weight[((oc * in_c + ic) * k + ky) * k + kx];
                }
              }
            }
          }
        }
      }
    }
  }

  void sgd_step(double* params, const double* grads, double* velocity,
                std::size_t count, double lr, double momentum,
                double weight_decay) const override {
    for (std::size_t i = 0; i < count; ++i) {
      const double g = grads[i] + weight_decay * params[i];
      velocity[i] = momentum * velocity[i] + g;
      params[i] -= lr * velocity[i];
    }
  }

  void adam_step(double* params, const double* grads, double* m, double* v,
                 std::size_t count, double lr, double beta1, double beta2,
                 double bc1, double bc2, double eps, double weight_decay,
                 bool decoupled) const override {
    for (std::size_t i = 0; i < count; ++i) {
      double g = grads[i];
      if (!decoupled) g += weight_decay * params[i];
      m[i] = beta1 * m[i] + (1.0 - beta1) * g;
      v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
      const double m_hat = m[i] / bc1;
      const double v_hat = v[i] / bc2;
      params[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      if (decoupled) params[i] -= lr * weight_decay * params[i];
    }
  }

 private:
  static double apply(Activation act, double x) {
    switch (act) {
      case Activation::kNone:
        return x;
      case Activation::kReLU:
        return x > 0.0 ? x : 0.0;
      case Activation::kTanh:
        return std::tanh(x);
    }
    return x;
  }
};

}  // namespace

namespace detail {
const KernelBackend& naive_backend() {
  static const NaiveKernel backend;
  return backend;
}
}  // namespace detail

}  // namespace cannikin::dnn::kernels
