#include "model/positional.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/rng.h"
#include "model/weights.h"

namespace kf::model {
namespace {

TEST(Rope, PositionZeroIsIdentity) {
  std::vector<float> v{1.0F, 2.0F, 3.0F, 4.0F};
  const std::vector<float> orig = v;
  rope_rotate(v, 0, 10000.0);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(v[i], orig[i], 1e-6F);
}

TEST(Rope, PreservesNorm) {
  Rng rng(1);
  std::vector<float> v(32);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  double norm_before = 0.0;
  for (const float x : v) norm_before += static_cast<double>(x) * x;
  rope_rotate(v, 1234, 10000.0);
  double norm_after = 0.0;
  for (const float x : v) norm_after += static_cast<double>(x) * x;
  EXPECT_NEAR(norm_before, norm_after, 1e-3);
}

TEST(Rope, RelativePositionProperty) {
  // <R(p) q, R(p + d) k> depends only on d, not p.
  Rng rng(2);
  std::vector<float> q(16), k(16);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  for (auto& x : k) x = static_cast<float>(rng.normal());

  const auto dot_at = [&](std::size_t p, std::size_t d) {
    std::vector<float> qr = q, kr = k;
    rope_rotate(qr, p, 10000.0);
    rope_rotate(kr, p + d, 10000.0);
    double acc = 0.0;
    for (int i = 0; i < 16; ++i) {
      acc += static_cast<double>(qr[i]) * kr[i];
    }
    return acc;
  };
  EXPECT_NEAR(dot_at(0, 7), dot_at(100, 7), 1e-3);
  EXPECT_NEAR(dot_at(5, 0), dot_at(500, 0), 1e-3);
}

TEST(Rope, SameVectorDotDecaysWithDistance) {
  // Rotating the same vector to distant positions reduces the dot product
  // relative to distance 0 (recency structure for content heads).
  std::vector<float> v(32, 1.0F);
  std::vector<float> a = v, b = v;
  rope_rotate(a, 100, 10000.0);
  rope_rotate(b, 101, 10000.0);
  double near = 0.0;
  for (int i = 0; i < 32; ++i) near += static_cast<double>(a[i]) * b[i];
  std::vector<float> c = v, d = v;
  rope_rotate(c, 100, 10000.0);
  rope_rotate(d, 200, 10000.0);
  double far = 0.0;
  for (int i = 0; i < 32; ++i) far += static_cast<double>(c[i]) * d[i];
  EXPECT_GT(near, far);
}

TEST(RopeTable, MatchesRopeRotateBitForBit) {
  // The table's rows and the fallback past its end both give rope_rotate's
  // bits, at every head width and base.
  Rng rng(3);
  for (const double base : {10000.0, 500.0}) {
    for (const std::size_t d_head : {2, 16, 32, 64}) {
      const RopeTable table(d_head, 4096, base);
      ASSERT_EQ(table.positions(), 4096u);
      for (const std::size_t pos : {0, 1, 4095, 4096, 5000}) {
        SCOPED_TRACE("base=" + std::to_string(base) +
                     " d_head=" + std::to_string(d_head) +
                     " pos=" + std::to_string(pos));
        std::vector<float> want(d_head);
        for (auto& x : want) x = static_cast<float>(rng.normal());
        std::vector<float> got = want;
        rope_rotate(want, pos, base);
        table.rotate(got, pos);
        for (std::size_t i = 0; i < d_head; ++i) EXPECT_EQ(got[i], want[i]);
      }
    }
  }
}

TEST(RopeTable, OnlyRopeModelsGetRows) {
  EXPECT_EQ(build_weights(ModelConfig::gptj_like()).rope.positions(),
            ModelConfig::gptj_like().max_seq_len);
  EXPECT_EQ(build_weights(ModelConfig::mpt_like()).rope.positions(), 0u);
  EXPECT_EQ(build_weights(ModelConfig::cerebras_like()).rope.positions(), 0u);
}

TEST(Alibi, PowerOfTwoSlopes) {
  EXPECT_NEAR(alibi_slope(0, 8), std::pow(2.0, -1.0), 1e-12);
  EXPECT_NEAR(alibi_slope(7, 8), std::pow(2.0, -8.0), 1e-12);
  EXPECT_NEAR(alibi_slope(3, 4), std::pow(2.0, -8.0), 1e-12);
}

TEST(Alibi, SlopesDecreaseWithHead) {
  for (std::size_t h = 1; h < 8; ++h) {
    EXPECT_LT(alibi_slope(h, 8), alibi_slope(h - 1, 8));
  }
}

TEST(Alibi, NonPowerOfTwoHeadsSupported) {
  for (std::size_t h = 0; h < 6; ++h) {
    const double s = alibi_slope(h, 6);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Alibi, BiasZeroAtDistanceZero) {
  EXPECT_DOUBLE_EQ(alibi_bias(0, 8, 10, 10), 0.0);
}

TEST(Alibi, BiasLinearInDistance) {
  const double b1 = alibi_bias(2, 8, 20, 19);
  const double b5 = alibi_bias(2, 8, 20, 15);
  EXPECT_NEAR(b5, 5.0 * b1, 1e-12);
  EXPECT_LT(b1, 0.0);
}

TEST(Alibi, SteeperHeadsPenalizeDistanceMore) {
  EXPECT_LT(alibi_bias(0, 8, 50, 0), alibi_bias(7, 8, 50, 0));
}

}  // namespace
}  // namespace kf::model
