// Minimal row-major float tensor plus the dense kernels the transformer
// needs: the dispatched (optionally threaded) matmul with its bias, GELU
// and residual epilogues, matvec, and LayerNorm. The reproduction is CPU-only
// and fp32; fp16 effects appear only in the analytical performance model
// (src/perf).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "cpu/kernels.h"

namespace kf {

/// Owning row-major tensor of floats with up to 4 dimensions.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor with the given shape.
  explicit Tensor(std::initializer_list<std::size_t> shape);
  explicit Tensor(const std::vector<std::size_t>& shape);

  /// Total number of elements.
  std::size_t size() const noexcept { return data_.size(); }

  /// Shape vector (row-major, slowest dimension first).
  const std::vector<std::size_t>& shape() const noexcept { return shape_; }

  /// Dimension i. Requires i < shape().size().
  std::size_t dim(std::size_t i) const { return shape_.at(i); }

  /// Number of dimensions.
  std::size_t rank() const noexcept { return shape_.size(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  std::span<float> span() noexcept { return {data_.data(), data_.size()}; }
  std::span<const float> span() const noexcept {
    return {data_.data(), data_.size()};
  }

  /// 2-D indexed access (requires rank() == 2).
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;

  /// Row view for a rank-2 tensor: `dim(1)` contiguous floats.
  std::span<float> row(std::size_t i);
  std::span<const float> row(std::size_t i) const;

  /// Sets every element to v.
  void fill(float v) noexcept;

  /// Reshape in place; the element count must be unchanged.
  void reshape(const std::vector<std::size_t>& shape);

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// C[m,n] = A[m,k] * B[k,n] through the dispatched gemm_rows kernel,
/// finished by `epilogue` (cpu/kernels.h): stored as is, or with the
/// n-float `bias` added and then GELU applied, or with `bias` added onto
/// C's existing values. Split by rows across ThreadPool::global() when the
/// problem is large enough. Row i of C is bit-identical to the same
/// product over row i alone (any m, any thread split), so m = 1 is the
/// vector-matrix product. Aliasing between C and A/B is not allowed.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            cpu::Epilogue epilogue = cpu::Epilogue::kStore,
            std::span<const float> bias = {});

/// y[n] = A[n,k] * x[k].
void matvec(std::span<const float> a, std::span<const float> x,
            std::span<float> y, std::size_t n, std::size_t k);

/// y += x (equal lengths).
void add_inplace(std::span<float> y, std::span<const float> x);

/// y *= s.
void scale_inplace(std::span<float> y, float s);

/// LayerNorm over the last dimension: out = (x - mean) / sqrt(var + eps)
/// * gamma + beta. `x` and `out` may alias.
void layer_norm(std::span<const float> x, std::span<const float> gamma,
                std::span<const float> beta, std::span<float> out,
                float eps = 1e-5F);

}  // namespace kf
