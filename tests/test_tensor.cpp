#include "core/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "core/rng.h"

namespace kf {
namespace {

TEST(Tensor, ShapeAndZeroInit) {
  Tensor t({3, 4});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 4u);
  EXPECT_EQ(t.size(), 12u);
  for (const float v : t.span()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, AtAndRow) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0F;
  EXPECT_EQ(t.row(1)[2], 5.0F);
  EXPECT_EQ(t.at(0, 0), 0.0F);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t.at(0, 5) = 3.0F;
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.at(1, 1), 3.0F);  // same flat index 5
}

TEST(Tensor, ReshapeRejectsSizeChange) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, RejectsRank5) {
  EXPECT_THROW(Tensor({1, 1, 1, 1, 1}), std::invalid_argument);
}

TEST(Matmul, MatchesNaiveReference) {
  // m = 1 is the vector-matrix product the decode projections run.
  Rng rng(1);
  const std::size_t shapes[][3] = {{13, 17, 11}, {1, 12, 8}};
  for (const auto& [m, k, n] : shapes) {
    std::vector<float> a(m * k), b(k * n), c(m * n);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    matmul(a, b, c, m, k, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
        }
        EXPECT_NEAR(c[i * n + j], acc, 1e-4)
            << m << "x" << k << "x" << n << " at " << i << "," << j;
      }
    }
  }
}

TEST(Matmul, LargeProblemUsesThreadsConsistently) {
  // Big enough to trigger the threaded path; must equal the naive result.
  Rng rng(2);
  const std::size_t m = 64, k = 96, n = 80;
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  matmul(a, b, c, m, k, n);
  // Spot-check a few entries against naive computation.
  for (const std::size_t idx : {std::size_t{0}, m * n / 2, m * n - 1}) {
    const std::size_t i = idx / n, j = idx % n;
    double acc = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
    }
    EXPECT_NEAR(c[idx], acc, 1e-3);
  }
}

TEST(Matvec, MatchesNaive) {
  Rng rng(4);
  const std::size_t n = 21, k = 33;
  std::vector<float> a(n * k), x(k), y(n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  matvec(a, x, y, n, k);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      acc += static_cast<double>(a[i * k + j]) * x[j];
    }
    EXPECT_NEAR(y[i], acc, 1e-4);
  }
}

TEST(AddScale, InPlace) {
  std::vector<float> y{1, 2};
  std::vector<float> x{3, 4};
  add_inplace(y, x);
  EXPECT_FLOAT_EQ(y[0], 4.0F);
  scale_inplace(y, 0.5F);
  EXPECT_FLOAT_EQ(y[1], 3.0F);
}

TEST(Gelu, KnownValues) {
  // GELU as the MLP runs it: a one-row kBiasGelu product, c = gelu(1 * b +
  // bias), with b + bias exact. 36 columns put every value both in vector
  // lanes and in the scalar column tail of each wide variant.
  const float values[] = {0.0F, 1.0F, -1.0F, 3.0F};
  const float expected[] = {0.0F, 0.8412F, -0.1588F, 2.9964F};
  constexpr std::size_t n = 36;
  const std::vector<float> a{1.0F};
  const std::vector<float> bias(n, 0.5F);
  std::vector<float> b(n), c(n);
  for (std::size_t j = 0; j < n; ++j) b[j] = values[j % 4] - 0.5F;
  matmul(a, b, c, 1, 1, n, cpu::Epilogue::kBiasGelu, bias);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(c[j], expected[j % 4], j % 4 == 0 ? 1e-6F : 1e-3F)
        << "col " << j;
  }
}

TEST(LayerNorm, NormalizesToUnitVariance) {
  Rng rng(6);
  const std::size_t d = 64;
  std::vector<float> x(d), gamma(d, 1.0F), beta(d, 0.0F), out(d);
  for (auto& v : x) v = static_cast<float>(rng.normal(3.0, 2.0));
  layer_norm(x, gamma, beta, out);
  double mean = 0.0, var = 0.0;
  for (const float v : out) mean += v;
  mean /= d;
  for (const float v : out) var += (v - mean) * (v - mean);
  var /= d;
  EXPECT_NEAR(mean, 0.0, 1e-4);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(LayerNorm, GammaBetaApplied) {
  std::vector<float> x{1.0F, -1.0F};
  std::vector<float> gamma{2.0F, 2.0F};
  std::vector<float> beta{1.0F, 1.0F};
  std::vector<float> out(2);
  layer_norm(x, gamma, beta, out);
  EXPECT_NEAR(out[0], 3.0F, 1e-3F);
  EXPECT_NEAR(out[1], -1.0F, 1e-3F);
}

}  // namespace
}  // namespace kf
