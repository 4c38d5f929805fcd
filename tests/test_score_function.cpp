#include "kvcache/score_function.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/numerics.h"
#include "cpu/kernels.h"

namespace kf::kv {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// One query row's score increments as KeyformerPolicy::accumulate computes
/// them: the frozen noise of slots 0..n-1 (none for kNone), then the
/// dispatched score kernel at tau = temperature.at(t, total_steps).
std::vector<double> increments(const ScoreFunction& fn,
                               std::span<const float> logits,
                               std::size_t layer, std::size_t head,
                               std::size_t t, std::size_t total_steps) {
  const ScoreFunctionConfig& cfg = fn.config();
  std::vector<double> noise;
  if (cfg.adjustment != LogitAdjustment::kNone) {
    for (std::size_t i = 0; i < logits.size(); ++i) {
      noise.push_back(fn.noise(layer, head, i));
    }
  }
  std::vector<double> out(logits.size());
  cpu::score_increments_stub.get()(
      logits.data(), noise.empty() ? nullptr : noise.data(), out.data(),
      logits.size(), cfg.temperature.at(t, total_steps));
  return out;
}

TEST(TemperatureSchedule, LinearRamp) {
  TemperatureSchedule s;  // 1 -> 2
  EXPECT_DOUBLE_EQ(s.at(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(s.at(5, 10), 1.5);
  EXPECT_DOUBLE_EQ(s.at(10, 10), 2.0);
}

TEST(TemperatureSchedule, StaticModeIgnoresStep) {
  TemperatureSchedule s;
  s.dynamic = false;
  s.tau_init = 1.7;
  EXPECT_DOUBLE_EQ(s.at(9, 10), 1.7);
}

TEST(TemperatureSchedule, ZeroTotalStepsFallsBackToInit) {
  TemperatureSchedule s;
  EXPECT_DOUBLE_EQ(s.at(3, 0), 1.0);
}

TEST(TemperatureSchedule, ClampsAtTauEndPastTotalSteps) {
  // Eq. 10 anneals tau_init -> tau_end over T steps; overrunning T must
  // hold tau at tau_end, never extrapolate beyond it.
  TemperatureSchedule s;  // 1 -> 2
  EXPECT_DOUBLE_EQ(s.at(11, 10), 2.0);
  EXPECT_DOUBLE_EQ(s.at(1000, 10), 2.0);
  TemperatureSchedule down;
  down.tau_init = 2.0;
  down.tau_end = 0.5;
  EXPECT_DOUBLE_EQ(down.at(99, 10), 0.5);
}

TEST(ScoreFunction, RejectsBadConfig) {
  ScoreFunctionConfig bad;
  bad.temperature.tau_init = 0.0;
  EXPECT_THROW(ScoreFunction{bad}, std::invalid_argument);
  ScoreFunctionConfig bad2;
  bad2.damping = 0.0;
  EXPECT_THROW(ScoreFunction{bad2}, std::invalid_argument);
  ScoreFunctionConfig bad3;
  bad3.damping = 1.5;
  EXPECT_THROW(ScoreFunction{bad3}, std::invalid_argument);
}

TEST(ScoreFunction, NoneAdjustmentIsExactSoftmax) {
  ScoreFunctionConfig cfg;
  cfg.adjustment = LogitAdjustment::kNone;
  const ScoreFunction fn(cfg);
  std::vector<float> logits{0.5F, 1.5F, -0.5F};
  std::vector<float> expected(3);
  softmax(logits, expected);
  const std::vector<double> out = increments(fn, logits, 0, 0, 0, 10);
  // The score kernel works in double; softmax() is float — compare at
  // float precision.
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(out[i], expected[i], 1e-6);
}

TEST(ScoreFunction, IncrementsSumToOne) {
  for (const auto adj :
       {LogitAdjustment::kNone, LogitAdjustment::kConstant,
        LogitAdjustment::kGaussian, LogitAdjustment::kGumbel}) {
    ScoreFunctionConfig cfg;
    cfg.adjustment = adj;
    const ScoreFunction fn(cfg);
    std::vector<float> logits{0.2F, -1.0F, 2.0F, 0.0F};
    const std::vector<double> out = increments(fn, logits, 1, 2, 3, 16);
    double sum = 0.0;
    for (const double v : out) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9) << to_string(adj);
  }
}

TEST(ScoreFunction, MaskedLogitsGetZeroIncrement) {
  ScoreFunctionConfig cfg;
  const ScoreFunction fn(cfg);
  std::vector<float> logits{1.0F, -kInf, 0.0F};
  const std::vector<double> out = increments(fn, logits, 0, 0, 0, 8);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_GT(out[0], out[2]);
}

TEST(ScoreFunction, NoiseFrozenPerSlot) {
  ScoreFunctionConfig cfg;
  const ScoreFunction fn(cfg);
  EXPECT_DOUBLE_EQ(fn.noise(1, 2, 3), fn.noise(1, 2, 3));
  EXPECT_NE(fn.noise(1, 2, 3), fn.noise(1, 2, 4));
  EXPECT_NE(fn.noise(0, 2, 3), fn.noise(1, 2, 3));
  EXPECT_NE(fn.noise(1, 0, 3), fn.noise(1, 2, 3));
}

TEST(ScoreFunction, NoiseCacheKeysDoNotCollide) {
  // Distinct slots keep distinct frozen realizations even at long-context
  // positions and wide head counts: (head=0, pos=2^40) differs from
  // (head=1, pos=0), and (head=256, pos=0) from (layer+1, head=0, pos=0).
  // A re-draw returns the slot's own value, also after another slot's.
  ScoreFunctionConfig cfg;
  const ScoreFunction fn(cfg);
  const std::size_t big_pos = std::size_t{1} << 40;
  const double first = fn.noise(0, 0, big_pos);
  const double alias = fn.noise(0, 1, 0);
  EXPECT_NE(first, alias);
  EXPECT_DOUBLE_EQ(fn.noise(0, 0, big_pos), first);
  EXPECT_DOUBLE_EQ(fn.noise(0, 1, 0), alias);
  EXPECT_NE(fn.noise(0, 256, 0), fn.noise(1, 0, 0));
}

TEST(ScoreFunction, NoiseSeedChangesRealization) {
  ScoreFunctionConfig a;
  ScoreFunctionConfig b;
  b.seed = 43;
  EXPECT_NE(ScoreFunction(a).noise(0, 0, 0), ScoreFunction(b).noise(0, 0, 0));
}

TEST(ScoreFunction, ConstantAdjustmentCancelsInSoftmax) {
  // Adding the same constant to every logit must not change the result.
  ScoreFunctionConfig cfg;
  cfg.adjustment = LogitAdjustment::kConstant;
  const ScoreFunction fn(cfg);
  ScoreFunctionConfig none_cfg;
  none_cfg.adjustment = LogitAdjustment::kNone;
  const ScoreFunction none_fn(none_cfg);
  std::vector<float> logits{0.1F, 0.9F, -0.3F};
  const std::vector<double> a = increments(fn, logits, 0, 0, 0, 4);
  const std::vector<double> b = increments(none_fn, logits, 0, 0, 0, 4);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST(ScoreFunction, GumbelNoiseScaleControlsPerturbation) {
  std::vector<float> logits{0.0F, 0.1F, 0.2F, 0.3F, 0.4F};
  ScoreFunctionConfig weak;
  weak.noise_scale = 0.01;
  ScoreFunctionConfig strong;
  strong.noise_scale = 3.0;
  ScoreFunctionConfig none_cfg;
  none_cfg.adjustment = LogitAdjustment::kNone;
  const std::vector<double> none =
      increments(ScoreFunction(none_cfg), logits, 0, 0, 0, 4);
  const std::vector<double> w =
      increments(ScoreFunction(weak), logits, 0, 0, 0, 4);
  const std::vector<double> s =
      increments(ScoreFunction(strong), logits, 0, 0, 0, 4);
  double weak_dev = 0.0, strong_dev = 0.0;
  for (int i = 0; i < 5; ++i) {
    weak_dev += std::abs(w[i] - none[i]);
    strong_dev += std::abs(s[i] - none[i]);
  }
  EXPECT_LT(weak_dev, strong_dev);
  EXPECT_LT(weak_dev, 0.05);
}

TEST(ScoreFunction, HigherTauFlattensIncrements) {
  // Eq. 8-style check: expected increments under Gumbel adjustment with a
  // growing tau have higher entropy than the plain softmax.
  std::vector<float> logits{2.0F, 0.0F, -1.0F, 0.5F};
  ScoreFunctionConfig cfg;  // dynamic 1 -> 2
  const ScoreFunction fn(cfg);
  const std::vector<double> early =
      increments(fn, logits, 0, 0, /*t=*/0, 10);
  const std::vector<double> late = increments(fn, logits, 0, 0, /*t=*/10, 10);
  std::vector<float> fe(early.begin(), early.end());
  std::vector<float> fl(late.begin(), late.end());
  EXPECT_GT(entropy(fl), entropy(fe));
}

TEST(ScoreFunction, GumbelExpectedEntropyExceedsPlainSoftmax) {
  // H(E[z_gumbel]) > H(E[z]) (Eq. 8), averaged over many heads.
  std::vector<float> logits{3.0F, 1.0F, 0.0F, -1.0F, 0.5F, 0.2F};
  ScoreFunctionConfig cfg;
  cfg.noise_scale = 1.0;
  const ScoreFunction fn(cfg);
  ScoreFunctionConfig none_cfg;
  none_cfg.adjustment = LogitAdjustment::kNone;
  const ScoreFunction base(none_cfg);

  std::vector<double> mean_gumbel(6, 0.0);
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    const std::vector<double> tmp =
        increments(fn, logits, 0, static_cast<std::size_t>(trial), 0, 4);
    for (int i = 0; i < 6; ++i) mean_gumbel[i] += tmp[i] / trials;
  }
  const std::vector<double> plain = increments(base, logits, 0, 0, 0, 4);
  std::vector<float> g(mean_gumbel.begin(), mean_gumbel.end());
  std::vector<float> p(plain.begin(), plain.end());
  EXPECT_GT(entropy(g), entropy(p));
}

TEST(ToString, AllAdjustments) {
  EXPECT_EQ(to_string(LogitAdjustment::kNone), "none");
  EXPECT_EQ(to_string(LogitAdjustment::kConstant), "constant");
  EXPECT_EQ(to_string(LogitAdjustment::kGaussian), "gaussian");
  EXPECT_EQ(to_string(LogitAdjustment::kGumbel), "gumbel");
}

}  // namespace
}  // namespace kf::kv
