// Optimized kernel backend: cache-blocked, vectorization-friendly
// rewrites of the reference loops.
//
// Bitwise-parity discipline: every output element accumulates its
// contributions in exactly the naive order (k ascending, starting from
// 0.0 for overwrite ops, onto the existing value for *_acc ops; bias
// added after the full sum; activation last). Blocking only regroups
// *which element* is worked on when -- never the order of additions
// within one element -- and the v == 0.0 skip structure is replicated
// where the reference has it (matmul_nn / matmul_tn_acc and the conv
// gradients yes, linear and the conv forward no). The k-innermost axpy
// loops carry no cross-iteration dependence on the j axis, so the
// compiler vectorizes them without reassociating any element's sum;
// the conv ops keep their own order per accumulator, documented at
// each op. This TU compiles with -ffp-contract=off plus
// -O3/-march=native (see src/dnn/CMakeLists.txt): contraction off
// keeps rounding identical to the reference, SIMD supplies the speed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory_resource>

#include "dnn/kernels/backends.h"

namespace cannikin::dnn::kernels {
namespace {

constexpr std::size_t kRowBlock = 8;   // output rows per L1-resident tile
constexpr std::size_t kKBlock = 16;    // k depth per tile
constexpr std::size_t kPackRows = 4;   // min rows for linear to pack W

double apply(Activation act, double x) {
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

// Scratch buffer carved from the caller's memory resource; deallocate
// is a no-op on the arena and a real free on the heap fallback.
template <typename T = double>
class ScratchBuffer {
 public:
  ScratchBuffer(std::pmr::memory_resource* mr, std::size_t count)
      : mr_(mr), count_(count) {
    data_ = static_cast<T*>(mr_->allocate(count_ * sizeof(T), alignof(T)));
  }
  ~ScratchBuffer() { mr_->deallocate(data_, count_ * sizeof(T), alignof(T)); }
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;
  T* data() { return data_; }

 private:
  std::pmr::memory_resource* mr_;
  std::size_t count_;
  T* data_ = nullptr;
};

// Four doubles, one AVX2 register (GCC/Clang vector extension). Lane
// arithmetic is the scalar IEEE operation per lane. The conv kernels
// hold their accumulator tiles in these: the same tile as a local
// double array stays in memory, and each term then round-trips
// through a store.
using Lanes = double __attribute__((vector_size(32)));
constexpr std::size_t kLaneWidth = 4;

Lanes load_lanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_lanes(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

// Not `Lanes{} + v`: +0.0 + -0.0 is +0.0.
constexpr Lanes broadcast(double v) { return Lanes{v, v, v, v}; }

// Adding -0.0 returns its other operand bit for bit, whatever it is
// (under the default round-to-nearest), so `acc += skip ? -0.0 : term`
// is an exact, branch-free form of `if (!skip) acc += term` that
// keeps the select off the accumulator's dependency chain.
constexpr Lanes kNegZero = broadcast(-0.0);

// A conv tile: kTileLanes registers, kConvTile doubles, accumulated in
// registers while the terms that feed them stream past.
constexpr std::size_t kTileLanes = 8;
constexpr std::size_t kConvTile = kTileLanes * kLaneWidth;

// Samples whose patches the weight gradient gathers at a time: bounds
// its scratch.
constexpr std::size_t kPatchBlock = 4;

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

// A conv's zero-padded input plane (hp x wp), and its output plane laid
// out at the same row stride wp: output (oy, ox) sits at oy * wp + ox,
// and tap (ky, kx) of it reads padded input cell oy * wp + ox +
// ky * wp + kx. Since ox + kx < wp, no tap wraps into the next row, so
// the flat index is the 2-D cell. The output run `span` ends at the
// last valid output; the columns past ow in it are filler.
struct PaddedGeometry {
  explicit PaddedGeometry(const ConvShape& shape)
      : s(shape),
        wp(s.w + 2 * s.pad),
        plane((s.h + 2 * s.pad) * wp),
        oh(s.oh()),
        ow(s.ow()),
        span((oh - 1) * wp + ow) {}

  // Copies sample n's (in_c, h, w) planes into zeroed (hp, wp) planes.
  void pad(const double* input, std::size_t n, double* padded) const {
    std::fill(padded, padded + s.in_c * plane, 0.0);
    for (std::size_t c = 0; c < s.in_c; ++c) {
      for (std::size_t y = 0; y < s.h; ++y) {
        const double* row = input + ((n * s.in_c + c) * s.h + y) * s.w;
        std::copy(row, row + s.w,
                  padded + c * plane + (y + s.pad) * wp + s.pad);
      }
    }
  }

  // Copies `rows` rows of `cols` values from stride wp to stride cols.
  void crop(const double* src, double* dst, std::size_t rows,
            std::size_t cols) const {
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(src + r * wp, src + r * wp + cols, dst + r * cols);
    }
  }

  ConvShape s;
  std::size_t wp, plane, oh, ow, span;
};

// The taps [begin, end) of one kernel axis that land inside the input
// when the output coordinate is `o`: pad <= o + t < extent + pad.
struct TapRange {
  TapRange(std::size_t o, std::size_t k, std::size_t pad, std::size_t extent)
      : begin(o < pad ? std::min(k, pad - o) : 0),
        end(std::clamp<std::size_t>(extent + pad > o ? extent + pad - o : 0,
                                    begin, k)) {}
  std::size_t begin, end;
};

class OptimizedKernel final : public KernelBackend {
 public:
  const char* name() const override { return "optimized"; }

  void matmul_nn(const double* a, const double* b, double* c, std::size_t m,
                 std::size_t k, std::size_t n) const override {
    for (std::size_t r0 = 0; r0 < m; r0 += kRowBlock) {
      const std::size_t r1 = std::min(m, r0 + kRowBlock);
      std::fill(c + r0 * n, c + r1 * n, 0.0);
      for (std::size_t kb = 0; kb < k; kb += kKBlock) {
        const std::size_t ke = std::min(k, kb + kKBlock);
        for (std::size_t r = r0; r < r1; ++r) {
          const double* arow = a + r * k;
          double* crow = c + r * n;
          for (std::size_t kk = kb; kk < ke; ++kk) {
            const double v = arow[kk];
            if (v == 0.0) continue;
            const double* brow = b + kk * n;
            for (std::size_t col = 0; col < n; ++col) {
              crow[col] += v * brow[col];
            }
          }
        }
      }
    }
  }

  void linear(const double* a, const double* w, const double* bias, double* c,
              std::size_t m, std::size_t k, std::size_t n, Activation act,
              std::pmr::memory_resource* scratch) const override {
    if (m < kPackRows) {
      linear_small_m(a, w, bias, c, m, k, n, act);
      return;
    }
    // Pack W (n,k) into W^T (k,n) so the inner loop is a contiguous
    // axpy over the output row -- the same element-wise k-ascending sum
    // as the reference dot, just vectorizable.
    ScratchBuffer packed(scratch != nullptr
                             ? scratch
                             : std::pmr::get_default_resource(),
                         k * n);
    double* wt = packed.data();
    for (std::size_t col = 0; col < n; ++col) {
      const double* wrow = w + col * k;
      for (std::size_t kk = 0; kk < k; ++kk) wt[kk * n + col] = wrow[kk];
    }
    for (std::size_t r0 = 0; r0 < m; r0 += kRowBlock) {
      const std::size_t r1 = std::min(m, r0 + kRowBlock);
      std::fill(c + r0 * n, c + r1 * n, 0.0);
      for (std::size_t kb = 0; kb < k; kb += kKBlock) {
        const std::size_t ke = std::min(k, kb + kKBlock);
        for (std::size_t r = r0; r < r1; ++r) {
          const double* arow = a + r * k;
          double* crow = c + r * n;
          // Four k steps per pass keep each C element in a register
          // across four additions, quartering the load/store traffic
          // on the output row. The additions stay k-ascending per
          // element, so rounding matches the reference exactly.
          // No zero-skip anywhere: the reference linear has none.
          std::size_t kk = kb;
          for (; kk + 4 <= ke; kk += 4) {
            const double v0 = arow[kk + 0];
            const double v1 = arow[kk + 1];
            const double v2 = arow[kk + 2];
            const double v3 = arow[kk + 3];
            const double* w0 = wt + kk * n;
            const double* w1 = w0 + n;
            const double* w2 = w1 + n;
            const double* w3 = w2 + n;
            for (std::size_t col = 0; col < n; ++col) {
              double acc = crow[col];
              acc += v0 * w0[col];
              acc += v1 * w1[col];
              acc += v2 * w2[col];
              acc += v3 * w3[col];
              crow[col] = acc;
            }
          }
          for (; kk < ke; ++kk) {
            const double v = arow[kk];
            const double* wrow = wt + kk * n;
            for (std::size_t col = 0; col < n; ++col) {
              crow[col] += v * wrow[col];
            }
          }
        }
      }
      for (std::size_t r = r0; r < r1; ++r) {
        double* crow = c + r * n;
        if (bias != nullptr) {
          for (std::size_t col = 0; col < n; ++col) crow[col] += bias[col];
        }
        if (act != Activation::kNone) {
          for (std::size_t col = 0; col < n; ++col) {
            crow[col] = apply(act, crow[col]);
          }
        }
      }
    }
  }

  void matmul_tn_acc(const double* a, const double* b, double* c,
                     std::size_t m, std::size_t k,
                     std::size_t n) const override {
    for (std::size_t r0 = 0; r0 < m; r0 += kRowBlock) {
      const std::size_t r1 = std::min(m, r0 + kRowBlock);
      for (std::size_t kb = 0; kb < k; kb += kKBlock) {
        const std::size_t ke = std::min(k, kb + kKBlock);
        for (std::size_t r = r0; r < r1; ++r) {
          double* crow = c + r * n;
          for (std::size_t kk = kb; kk < ke; ++kk) {
            const double v = a[kk * m + r];
            if (v == 0.0) continue;
            const double* brow = b + kk * n;
            for (std::size_t col = 0; col < n; ++col) {
              crow[col] += v * brow[col];
            }
          }
        }
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
    switch (act) {
      case Activation::kNone:
        for (std::size_t i = 0; i < count; ++i) y[i] = x[i];
        break;
      case Activation::kReLU:
        for (std::size_t i = 0; i < count; ++i) {
          y[i] = x[i] > 0.0 ? x[i] : 0.0;
        }
        break;
      case Activation::kTanh:
        for (std::size_t i = 0; i < count; ++i) y[i] = std::tanh(x[i]);
        break;
    }
  }

  void activation_backward(Activation act, const double* y, const double* dy,
                           double* dx, std::size_t count) const override {
    switch (act) {
      case Activation::kNone:
        for (std::size_t i = 0; i < count; ++i) dx[i] = dy[i];
        break;
      case Activation::kReLU:
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

  // Forward over a zero-padded copy of the input. The +0.0 padding is
  // the operand the reference's bounds check returns, so every term is
  // the same product, with no branch. A tile of kConvTile outputs (at
  // padded-width stride, filler columns included and later dropped)
  // stays in registers while the (ic, ky, kx) taps stream past: each
  // output adds bias first, then its taps ascending, as in the
  // reference.
  void conv2d_forward(const double* input, const double* weight,
                      const double* bias, double* out, const ConvShape& s,
                      std::pmr::memory_resource* scratch) const override {
    const PaddedGeometry g(s);
    const std::size_t taps = s.in_c * s.k * s.k;
    // One sample at a time: its padded planes, then zero slack for the
    // reads of the last tile; then a stride-wp output plane.
    const std::size_t in_stride = s.in_c * g.plane + kConvTile;
    ScratchBuffer padded(scratch, in_stride);
    ScratchBuffer rows(scratch, round_up(g.span, kConvTile));
    for (std::size_t n = 0; n < s.batch; ++n) {
      double* pn = padded.data();
      g.pad(input, n, pn);
      std::fill(pn + s.in_c * g.plane, pn + in_stride, 0.0);
      double* on = rows.data();
      for (std::size_t oc = 0; oc < s.out_c; ++oc) {
        for (std::size_t i0 = 0; i0 < g.span; i0 += kConvTile) {
          Lanes acc[kTileLanes];
          for (Lanes& a : acc) a = broadcast(bias[oc]);
          const double* wt = weight + oc * taps;
          for (std::size_t ic = 0; ic < s.in_c; ++ic) {
            for (std::size_t ky = 0; ky < s.k; ++ky) {
              const double* src = pn + ic * g.plane + ky * g.wp + i0;
              for (std::size_t kx = 0; kx < s.k; ++kx) {
                const double wv = *wt++;
                for (std::size_t l = 0; l < kTileLanes; ++l) {
                  acc[l] += wv * load_lanes(src + kx + l * kLaneWidth);
                }
              }
            }
          }
          for (std::size_t l = 0; l < kTileLanes; ++l) {
            store_lanes(on + i0 + l * kLaneWidth, acc[l]);
          }
        }
        g.crop(on, out + (n * s.out_c + oc) * g.oh * g.ow, g.oh, g.ow);
      }
    }
  }

  // Each output position's input patch is gathered once (im2col, from
  // a padded copy, rows padded to whole tiles), kPatchBlock samples at
  // a time, so a tile of one filter's elements stays in registers while
  // the positions stream past. Every filter element is its own
  // accumulator: one serial chain per element over (n, oy, ox) would be
  // latency-bound. Per element the terms still arrive in (n, oy, ox)
  // order. The zero-gradient skip stays a branch (for the filter, a
  // whole position drops out); the padding-tap skip is an add of -0.0
  // selected by a per-position tap mask.
  void conv2d_backward_params(const double* input, const double* grad_out,
                              double* weight_grad, double* bias_grad,
                              const ConvShape& s,
                              std::pmr::memory_resource* scratch)
      const override {
    const PaddedGeometry g(s);
    const std::size_t positions = g.oh * g.ow;
    const std::size_t taps = s.in_c * s.k * s.k;
    const std::size_t row = round_up(taps, kConvTile);
    const std::size_t block = std::min(s.batch, kPatchBlock);
    ScratchBuffer<std::size_t> offsets(scratch, taps);
    ScratchBuffer mask(scratch, positions * row);
    ScratchBuffer padded(scratch, block * s.in_c * g.plane);
    ScratchBuffer cols(scratch, block * positions * row);
    for (std::size_t ic = 0, t = 0; ic < s.in_c; ++ic) {
      for (std::size_t ky = 0; ky < s.k; ++ky) {
        for (std::size_t kx = 0; kx < s.k; ++kx) {
          offsets.data()[t++] = ic * g.plane + ky * g.wp + kx;
        }
      }
    }
    std::fill(mask.data(), mask.data() + positions * row, 0.0);
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      const TapRange ys(oy, s.k, s.pad, s.h);
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        const TapRange xs(ox, s.k, s.pad, s.w);
        double* m = mask.data() + (oy * g.ow + ox) * row;
        for (std::size_t ic = 0; ic < s.in_c; ++ic) {
          for (std::size_t ky = ys.begin; ky < ys.end; ++ky) {
            std::fill(m + (ic * s.k + ky) * s.k + xs.begin,
                      m + (ic * s.k + ky) * s.k + xs.end, 1.0);
          }
        }
      }
    }
    for (std::size_t n0 = 0; n0 < s.batch; n0 += block) {
      const std::size_t count = std::min(block, s.batch - n0);
      for (std::size_t j = 0; j < count; ++j) {
        double* pj = padded.data() + j * s.in_c * g.plane;
        g.pad(input, n0 + j, pj);
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          for (std::size_t ox = 0; ox < g.ow; ++ox) {
            const double* base = pj + oy * g.wp + ox;
            double* col = cols.data() + (j * positions + oy * g.ow + ox) * row;
            for (std::size_t t = 0; t < taps; ++t) {
              col[t] = base[offsets.data()[t]];
            }
            std::fill(col + taps, col + row, 0.0);
          }
        }
      }
      for (std::size_t oc = 0; oc < s.out_c; ++oc) {
        // The bias rides along with the first tile. A loop of its own
        // would be if-converted and vectorized into adds of +0.0,
        // which turn a -0.0 bias gradient into +0.0.
        double b = bias_grad[oc];
        double* wg = weight_grad + oc * taps;
        for (std::size_t t0 = 0; t0 < taps; t0 += kConvTile) {
          const std::size_t width = std::min(kConvTile, taps - t0);
          double tile[kConvTile] = {};
          std::copy(wg + t0, wg + t0 + width, tile);
          Lanes acc[kTileLanes];
          for (std::size_t l = 0; l < kTileLanes; ++l) {
            acc[l] = load_lanes(tile + l * kLaneWidth);
          }
          for (std::size_t j = 0; j < count; ++j) {
            const double* gj =
                grad_out + ((n0 + j) * s.out_c + oc) * positions;
            const double* cj = cols.data() + j * positions * row + t0;
            for (std::size_t p = 0; p < positions; ++p) {
              const double gv = gj[p];
              if (gv == 0.0) continue;
              if (t0 == 0) b += gv;
              const double* col = cj + p * row;
              const double* m = mask.data() + p * row + t0;
              for (std::size_t l = 0; l < kTileLanes; ++l) {
                const Lanes term = gv * load_lanes(col + l * kLaneWidth);
                acc[l] += load_lanes(m + l * kLaneWidth) != 0.0 ? term
                                                                : kNegZero;
              }
            }
          }
          for (std::size_t l = 0; l < kTileLanes; ++l) {
            store_lanes(tile + l * kLaneWidth, acc[l]);
          }
          std::copy(tile, tile + width, wg + t0);
        }
        bias_grad[oc] = b;
      }
    }
  }

  // The scatter of the reference, turned into a gather: padded input
  // cell i takes output gradient i - ky * wp - kx through tap (ky, kx)
  // (see PaddedGeometry). For one cell and one oc, the taps walked in
  // descending order are the outputs (oy, ox) in ascending order, so
  // each cell keeps the reference's (oc, oy, ox) order. The gradient
  // planes sit at stride wp with zeros around them; every zero, real
  // or filler, is skipped as an add of -0.0.
  void conv2d_backward_input(const double* grad_out, const double* weight,
                             double* grad_input, const ConvShape& s,
                             std::pmr::memory_resource* scratch)
      const override {
    const PaddedGeometry g(s);
    // Per oc: `front` zeros so the furthest tap reads stay in bounds,
    // the stride-wp gradient plane, and zero slack for the last tile.
    const std::size_t front = (s.k - 1) * g.wp + (s.k - 1);
    const std::size_t grad_stride = front + g.plane + kConvTile;
    // Only the rows pad .. pad + h - 1 of the padded plane are cells.
    const std::size_t first = s.pad * g.wp, last = (s.pad + s.h) * g.wp;
    ScratchBuffer grads(scratch, s.out_c * grad_stride);
    ScratchBuffer cells(scratch, g.plane + kConvTile);
    for (std::size_t n = 0; n < s.batch; ++n) {
      double* gn = grads.data();
      std::fill(gn, gn + s.out_c * grad_stride, 0.0);
      for (std::size_t oc = 0; oc < s.out_c; ++oc) {
        const double* go = grad_out + (n * s.out_c + oc) * g.oh * g.ow;
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          std::copy(go + oy * g.ow, go + (oy + 1) * g.ow,
                    gn + oc * grad_stride + front + oy * g.wp);
        }
      }
      double* cn = cells.data();
      for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        for (std::size_t i0 = first; i0 < last; i0 += kConvTile) {
          Lanes acc[kTileLanes] = {};
          for (std::size_t oc = 0; oc < s.out_c; ++oc) {
            const double* wk = weight + (oc * s.in_c + ic) * s.k * s.k;
            const double* src = gn + oc * grad_stride + front + i0;
            for (std::size_t ky = s.k; ky-- > 0;) {
              for (std::size_t kx = s.k; kx-- > 0;) {
                const double wv = wk[ky * s.k + kx];
                const double* gsrc = src - ky * g.wp - kx;
                for (std::size_t l = 0; l < kTileLanes; ++l) {
                  const Lanes gl = load_lanes(gsrc + l * kLaneWidth);
                  acc[l] += gl == 0.0 ? kNegZero : gl * wv;
                }
              }
            }
          }
          for (std::size_t l = 0; l < kTileLanes; ++l) {
            store_lanes(cn + i0 + l * kLaneWidth, acc[l]);
          }
        }
        g.crop(cn + first + s.pad,
               grad_input + (n * s.in_c + ic) * s.h * s.w, s.h, s.w);
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
  // Tiny batches: packing costs more than it saves. Four independent
  // column dots give the compiler ILP; each dot is a single
  // k-ascending chain, identical to the reference element sum.
  static void linear_small_m(const double* a, const double* w,
                             const double* bias, double* c, std::size_t m,
                             std::size_t k, std::size_t n, Activation act) {
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * k;
      double* crow = c + r * n;
      std::size_t col = 0;
      for (; col + 4 <= n; col += 4) {
        const double* w0 = w + (col + 0) * k;
        const double* w1 = w + (col + 1) * k;
        const double* w2 = w + (col + 2) * k;
        const double* w3 = w + (col + 3) * k;
        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const double v = arow[kk];
          t0 += v * w0[kk];
          t1 += v * w1[kk];
          t2 += v * w2[kk];
          t3 += v * w3[kk];
        }
        if (bias != nullptr) {
          t0 += bias[col + 0];
          t1 += bias[col + 1];
          t2 += bias[col + 2];
          t3 += bias[col + 3];
        }
        crow[col + 0] = apply(act, t0);
        crow[col + 1] = apply(act, t1);
        crow[col + 2] = apply(act, t2);
        crow[col + 3] = apply(act, t3);
      }
      for (; col < n; ++col) {
        const double* wrow = w + col * k;
        double total = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) total += arow[kk] * wrow[kk];
        if (bias != nullptr) total += bias[col];
        crow[col] = apply(act, total);
      }
    }
  }
};

}  // namespace

namespace detail {
const KernelBackend& optimized_backend() {
  static const OptimizedKernel backend;
  return backend;
}
}  // namespace detail

}  // namespace cannikin::dnn::kernels
