#include "dnn/tensor.h"

#include <algorithm>

#include "dnn/kernels/kernels.h"

namespace cannikin::dnn {

namespace {

std::size_t shape_size(std::span<const std::size_t> shape) {
  std::size_t total = 1;
  for (std::size_t d : shape) total *= d;
  return shape.empty() ? 0 : total;
}

std::pmr::memory_resource* or_default(std::pmr::memory_resource* mr) {
  return mr != nullptr ? mr : std::pmr::get_default_resource();
}

}  // namespace

Tensor::Tensor(std::span<const std::size_t> shape, double fill,
               std::pmr::memory_resource* mr)
    : data_(shape_size(shape), fill, or_default(mr)) {
  if (shape.empty() || shape.size() > kMaxRank) {
    throw std::invalid_argument("Tensor: shape rank must be in [1, 8]");
  }
  rank_ = shape.size();
  std::copy(shape.begin(), shape.end(), shape_.begin());
}

void Tensor::assign(const Tensor& other, std::pmr::memory_resource* mr) {
  if (this == &other) return;
  shape_ = other.shape_;
  rank_ = other.rank_;
  data_.~vector();
  new (&data_) std::pmr::vector<double>(other.data_, or_default(mr));
}

Tensor Tensor::reshaped(std::span<const std::size_t> shape) const {
  if (shape_size(shape) != size()) {
    throw std::invalid_argument("Tensor::reshaped: size mismatch");
  }
  Tensor out(shape, 0.0, data_.get_allocator().resource());
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  return out;
}

void Tensor::fill(double value) {
  for (double& v : data_) v = value;
}

Tensor matmul(const Tensor& a, const Tensor& b, const kernels::Context* ctx) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: shape mismatch");
  }
  const kernels::Context& kc = kernels::ctx_or_default(ctx);
  const std::size_t rows = a.dim(0), inner = a.dim(1), cols = b.dim(1);
  Tensor c = Tensor::matrix(rows, cols, 0.0, kc.resource());
  kc.k().matmul_nn(a.data(), b.data(), c.data(), rows, inner, cols);
  return c;
}

Tensor matmul_transposed(const Tensor& a, const Tensor& b,
                         const kernels::Context* ctx) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw std::invalid_argument("matmul_transposed: shape mismatch");
  }
  const kernels::Context& kc = kernels::ctx_or_default(ctx);
  const std::size_t rows = a.dim(0), inner = a.dim(1), cols = b.dim(0);
  Tensor c = Tensor::matrix(rows, cols, 0.0, kc.resource());
  kc.k().linear(a.data(), b.data(), nullptr, c.data(), rows, inner, cols,
                kernels::Activation::kNone, kc.resource());
  return c;
}

Tensor transposed_matmul(const Tensor& a, const Tensor& b,
                         const kernels::Context* ctx) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw std::invalid_argument("transposed_matmul: shape mismatch");
  }
  const kernels::Context& kc = kernels::ctx_or_default(ctx);
  const std::size_t rows = a.dim(1), inner = a.dim(0), cols = b.dim(1);
  Tensor c = Tensor::matrix(rows, cols, 0.0, kc.resource());
  kc.k().matmul_tn_acc(a.data(), b.data(), c.data(), rows, inner, cols);
  return c;
}

}  // namespace cannikin::dnn
