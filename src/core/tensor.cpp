#include "core/tensor.h"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/threadpool.h"
#include "cpu/kernels.h"

namespace kf {

namespace {

std::size_t shape_size(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

}  // namespace

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(std::vector<std::size_t>(shape)) {}

Tensor::Tensor(const std::vector<std::size_t>& shape)
    : shape_(shape), data_(shape_size(shape), 0.0F) {
  if (shape_.size() > 4) {
    throw std::invalid_argument("Tensor supports at most 4 dimensions");
  }
}

float& Tensor::at(std::size_t i, std::size_t j) {
  assert(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}

float Tensor::at(std::size_t i, std::size_t j) const {
  assert(rank() == 2 && i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}

std::span<float> Tensor::row(std::size_t i) {
  assert(rank() == 2 && i < shape_[0]);
  return {data_.data() + i * shape_[1], shape_[1]};
}

std::span<const float> Tensor::row(std::size_t i) const {
  assert(rank() == 2 && i < shape_[0]);
  return {data_.data() + i * shape_[1], shape_[1]};
}

void Tensor::fill(float v) noexcept {
  for (float& x : data_) x = v;
}

void Tensor::reshape(const std::vector<std::size_t>& shape) {
  if (shape_size(shape) != data_.size()) {
    throw std::invalid_argument("reshape must preserve element count");
  }
  shape_ = shape;
}

void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            cpu::Epilogue epilogue, std::span<const float> bias) {
  assert(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  assert(epilogue == cpu::Epilogue::kStore || bias.size() >= n);
  // ISA resolved once per call; every worker of a row split runs the same
  // row kernel, whose row bits do not depend on the split.
  const cpu::GemmRowsFn rows = cpu::gemm_rows_stub.get();
  const auto kernel = [&, rows](std::size_t r0, std::size_t r1) {
    rows(a.data(), b.data(), c.data(), r0, r1, k, n, epilogue, bias.data());
  };
  if (m * k * n > (1u << 18) && m > 1) {
    ThreadPool::global().parallel_for(m, kernel, /*grain=*/4);
  } else {
    kernel(0, m);
  }
}

void matvec(std::span<const float> a, std::span<const float> x,
            std::span<float> y, std::size_t n, std::size_t k) {
  assert(a.size() >= n * k && x.size() >= k && y.size() >= n);
  // ISA resolved once per call (one relaxed load); the row kernel runs
  // unchanged on every worker of a parallel split.
  const cpu::MatvecRowsFn rows = cpu::matvec_rows_stub.get();
  const auto kernel = [&, rows](std::size_t r0, std::size_t r1) {
    rows(a.data(), x.data(), y.data(), r0, r1, k);
  };
  if (n * k > (1u << 18)) {
    ThreadPool::global().parallel_for(n, kernel, /*grain=*/16);
  } else {
    kernel(0, n);
  }
}

void add_inplace(std::span<float> y, std::span<const float> x) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void scale_inplace(std::span<float> y, float s) {
  for (float& v : y) v *= s;
}

void layer_norm(std::span<const float> x, std::span<const float> gamma,
                std::span<const float> beta, std::span<float> out, float eps) {
  assert(x.size() == out.size() && gamma.size() == x.size() &&
         beta.size() == x.size());
  const std::size_t n = x.size();
  double mean = 0.0;
  for (const float v : x) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const float v : x) {
    const double d = v - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  const float inv = 1.0F / std::sqrt(static_cast<float>(var) + eps);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (x[i] - static_cast<float>(mean)) * inv * gamma[i] + beta[i];
  }
}

}  // namespace kf
