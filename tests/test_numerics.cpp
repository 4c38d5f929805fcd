#include "core/numerics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace kf {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(Softmax, SumsToOne) {
  std::vector<float> x{1.0F, 2.0F, 3.0F};
  std::vector<float> out(3);
  softmax(x, out);
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0F, 1e-6F);
  EXPECT_GT(out[2], out[1]);
  EXPECT_GT(out[1], out[0]);
}

TEST(Softmax, StableUnderLargeValues) {
  std::vector<float> x{1000.0F, 1001.0F};
  std::vector<float> out(2);
  softmax(x, out);
  EXPECT_NEAR(out[1], 1.0F / (1.0F + std::exp(-1.0F)), 1e-5F);
  EXPECT_FALSE(std::isnan(out[0]));
}

TEST(Softmax, MaskedEntriesBecomeZero) {
  std::vector<float> x{0.0F, -kInf, 0.0F};
  std::vector<float> out(3);
  softmax(x, out);
  EXPECT_EQ(out[1], 0.0F);
  EXPECT_NEAR(out[0], 0.5F, 1e-6F);
}

TEST(Softmax, AllMaskedRowYieldsZerosNotNaN) {
  // A fully masked row (every logit -inf) has no distribution; the guard
  // must return the all-zero row instead of NaN fan-out via -inf - -inf.
  std::vector<float> x{-kInf, -kInf, -kInf};
  std::vector<float> out(3, 7.0F);
  softmax(x, out);
  for (const float v : out) EXPECT_EQ(v, 0.0F);
}

TEST(SoftmaxTemperature, AllMaskedRowYieldsZerosNotNaN) {
  std::vector<float> x{-kInf, -kInf};
  std::vector<float> out(2, 7.0F);
  softmax_temperature(x, out, 1.7);
  for (const float v : out) EXPECT_EQ(v, 0.0F);
}

TEST(Softmax, ShiftInvariance) {
  std::vector<float> x{0.5F, 1.5F, -0.5F};
  std::vector<float> shifted{10.5F, 11.5F, 9.5F};
  std::vector<float> a(3), b(3);
  softmax(x, a);
  softmax(shifted, b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-6F);
}

TEST(SoftmaxTemperature, HighTauApproachesUniform) {
  std::vector<float> x{0.0F, 1.0F, 2.0F, 3.0F};
  std::vector<float> out(4);
  softmax_temperature(x, out, 1000.0);
  for (const float v : out) EXPECT_NEAR(v, 0.25F, 1e-3F);
}

TEST(SoftmaxTemperature, LowTauApproachesArgmax) {
  std::vector<float> x{0.0F, 1.0F, 2.0F};
  std::vector<float> out(3);
  softmax_temperature(x, out, 0.05);
  EXPECT_GT(out[2], 0.99F);
}

TEST(SoftmaxTemperature, TauOneEqualsSoftmax) {
  std::vector<float> x{0.3F, -0.7F, 1.9F};
  std::vector<float> a(3), b(3);
  softmax(x, a);
  softmax_temperature(x, b, 1.0);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-6F);
}

TEST(SoftmaxTemperature, EntropyIncreasesWithTau) {
  std::vector<float> x{0.0F, 0.5F, 3.0F, -1.0F};
  std::vector<float> p1(4), p2(4);
  softmax_temperature(x, p1, 1.0);
  softmax_temperature(x, p2, 2.0);
  EXPECT_GT(entropy(p2), entropy(p1));
}

TEST(Entropy, UniformIsMaximal) {
  std::vector<float> uniform{0.25F, 0.25F, 0.25F, 0.25F};
  std::vector<float> peaked{0.97F, 0.01F, 0.01F, 0.01F};
  EXPECT_NEAR(entropy(uniform), std::log(4.0), 1e-6);
  EXPECT_LT(entropy(peaked), entropy(uniform));
}

TEST(Entropy, SkipsZeros) {
  std::vector<float> p{0.5F, 0.5F, 0.0F};
  EXPECT_NEAR(entropy(p), std::log(2.0), 1e-6);
}

TEST(KlDivergence, ZeroForIdentical) {
  std::vector<float> p{0.2F, 0.3F, 0.5F};
  EXPECT_NEAR(kl_divergence(p, p), 0.0, 1e-9);
}

TEST(KlDivergence, PositiveForDifferent) {
  std::vector<float> p{0.9F, 0.1F};
  std::vector<float> q{0.1F, 0.9F};
  EXPECT_GT(kl_divergence(p, q), 0.5);
}

TEST(KlDivergence, HandlesZeroQSafely) {
  std::vector<float> p{0.5F, 0.5F};
  std::vector<float> q{1.0F, 0.0F};
  const double kl = kl_divergence(p, q);
  EXPECT_TRUE(std::isfinite(kl));
  EXPECT_GT(kl, 1.0);
}

}  // namespace
}  // namespace kf
