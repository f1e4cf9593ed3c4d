// Minimal dense tensor for the CPU training substrate.
//
// The training substrate exists to validate Cannikin's statistical
// machinery (Eq. 9 aggregation, Eq. 10 / Theorem 4.1 GNS estimation,
// convergence equivalence of Figure 6) on *real* stochastic gradients.
// Models are small, so a simple contiguous row-major double tensor is
// the right tool; no views, no broadcasting, no autograd graph --
// layers implement their own backward passes.
//
// Storage is a std::pmr::vector so per-step workspaces can live in a
// kernels::Arena: pass a memory_resource at construction (or via
// assign()) and the tensor's buffer is a pointer bump instead of a heap
// allocation. The shape is an inline array (kMaxRank) so constructing a
// tensor never allocates beyond its data buffer.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <memory_resource>
#include <span>
#include <stdexcept>
#include <vector>

namespace cannikin::dnn {

namespace kernels {
struct Context;
}  // namespace kernels

class Tensor {
 public:
  /// Checkpoint format allows ranks up to 8; the inline shape matches.
  static constexpr std::size_t kMaxRank = 8;

  Tensor() = default;
  explicit Tensor(std::span<const std::size_t> shape, double fill = 0.0,
                  std::pmr::memory_resource* mr = nullptr);
  Tensor(std::initializer_list<std::size_t> shape, double fill = 0.0,
         std::pmr::memory_resource* mr = nullptr)
      : Tensor(std::span<const std::size_t>(shape.begin(), shape.size()), fill,
               mr) {}

  // Copies land on the target's (or default) resource; moves adopt the
  // source's resource. The custom move-assignment is load-bearing:
  // std::pmr::vector does not propagate its allocator on move-assign,
  // so the defaulted operator would silently deep-copy an arena-backed
  // tensor into whatever resource the target happened to hold.
  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = other.shape_;
      rank_ = other.rank_;
      data_.~vector();
      new (&data_) std::pmr::vector<double>(std::move(other.data_));
    }
    return *this;
  }
  ~Tensor() = default;

  static Tensor matrix(std::size_t rows, std::size_t cols, double fill = 0.0,
                       std::pmr::memory_resource* mr = nullptr) {
    return Tensor({rows, cols}, fill, mr);
  }

  /// Rebuilds this tensor as a copy of `other` on `mr` (null = default
  /// resource). The workhorse of arena-backed layer caches: always a
  /// fresh pmr::vector, never stale capacity from a reset() arena.
  void assign(const Tensor& other, std::pmr::memory_resource* mr);

  std::span<const std::size_t> shape() const {
    return {shape_.data(), rank_};
  }
  std::size_t rank() const { return rank_; }
  std::size_t dim(std::size_t axis) const {
    if (axis >= rank_) throw std::out_of_range("Tensor::dim: axis");
    return shape_[axis];
  }
  std::size_t size() const { return data_.size(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::pmr::vector<double>& storage() { return data_; }
  const std::pmr::vector<double>& storage() const { return data_; }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// 2-D accessors (bounds-checked in debug builds, free in release).
  double& at(std::size_t r, std::size_t c) {
    assert(rank_ == 2 && "Tensor::at: rank-2 accessor on non-matrix");
    assert(r < shape_[0] && c < shape_[1] && "Tensor::at: index out of range");
    return data_[r * shape_[1] + c];
  }
  double at(std::size_t r, std::size_t c) const {
    assert(rank_ == 2 && "Tensor::at: rank-2 accessor on non-matrix");
    assert(r < shape_[0] && c < shape_[1] && "Tensor::at: index out of range");
    return data_[r * shape_[1] + c];
  }

  /// Copy with a new shape of identical total size, on this tensor's
  /// own memory resource.
  Tensor reshaped(std::span<const std::size_t> shape) const;
  Tensor reshaped(std::initializer_list<std::size_t> shape) const {
    return reshaped(std::span<const std::size_t>(shape.begin(), shape.size()));
  }

  void fill(double value);

 private:
  std::array<std::size_t, kMaxRank> shape_{};
  std::size_t rank_ = 0;
  std::pmr::vector<double> data_;
};

// The free matmuls dispatch through the kernel context when one is
// given (backend + output memory resource); the default is the
// naive reference on the heap, preserving the original semantics.

/// C = A x B for 2-D tensors (rows_a x k) * (k x cols_b).
Tensor matmul(const Tensor& a, const Tensor& b,
              const kernels::Context* ctx = nullptr);

/// C = A x B^T.
Tensor matmul_transposed(const Tensor& a, const Tensor& b,
                         const kernels::Context* ctx = nullptr);

/// C = A^T x B.
Tensor transposed_matmul(const Tensor& a, const Tensor& b,
                         const kernels::Context* ctx = nullptr);

}  // namespace cannikin::dnn
