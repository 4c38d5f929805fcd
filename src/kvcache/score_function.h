// Score functions f_theta for key-token identification (Sections 2.3.1,
// 3.1-3.3 and Table 4).
//
// A score function turns one head's unnormalized attention logits x_i
// (already scaled by 1/sqrt(d_head)) into per-token score increments that
// accumulate across decoding steps. Variants:
//
//   - AccumAttention (H2O): increment = softmax(x)_i. No noise, no
//     temperature. Optionally damped: f <- alpha * f before adding the new
//     increment (the damping study of Fig 5 / Section 2.3.3).
//   - Keyformer: increment = softmax((x + zeta) / tau)_i where zeta is a
//     per-slot logit adjustment (Gumbel by default; Gaussian / constant /
//     none for the Table 4 ablation) and tau follows the linear schedule of
//     Eq. 10: tau(t) = tau_init + t * (tau_end - tau_init) / T.
//
// Noise realizations zeta_i are *frozen per (seed, layer, head, original
// position)* via stateless hashing, which keeps runs reproducible and
// order-independent. Algorithm 1 draws zeta once per cached slot and reuses
// it every step: Keyformer stores each row's draw in the layer cache's noise
// row (KvCache::noise) and compacts it with the row.
#pragma once

#include <cstdint>
#include <string>

namespace kf::kv {

/// Which distribution regularizes the unnormalized logits (Table 4).
enum class LogitAdjustment {
  kNone,      // y_i = x_i            (H2O-style)
  kConstant,  // y_i = x_i + c
  kGaussian,  // y_i = x_i + N(mu, sigma^2)
  kGumbel,    // y_i = x_i + Gumbel(0, 1)   (Keyformer)
};

/// Human-readable name ("gumbel", "gaussian", ...).
std::string to_string(LogitAdjustment a);

/// Temperature schedule (Eq. 10 and the Fig 16 static-vs-dynamic ablation).
struct TemperatureSchedule {
  double tau_init = 1.0;
  double tau_end = 2.0;
  bool dynamic = true;    ///< false: use tau_init for every step
  /// tau at decode step t of a generation of length T (t==0 covers the
  /// prompt phase, where Algorithm 1 uses tau_init).
  double at(std::size_t t, std::size_t total_steps) const;
};

/// Full configuration of a score function.
struct ScoreFunctionConfig {
  LogitAdjustment adjustment = LogitAdjustment::kGumbel;
  /// Constant c for kConstant (paper uses the Gumbel mean 0.5772).
  double constant = 0.57721566490153286;
  /// Gaussian parameters for kGaussian (paper matches Gumbel moments).
  double gaussian_mean = 0.57721566490153286;
  double gaussian_stddev = 1.28254983016186409;
  /// Scale applied to every logit adjustment. The paper uses the standard
  /// Gumbel against 7B-model logits (range ~±15); this reproduction's
  /// logits span ~±6, so the default keeps the noise-to-signal ratio
  /// comparable.
  double noise_scale = 0.5;
  TemperatureSchedule temperature;
  /// Exponential damping factor alpha applied to accumulated scores before
  /// each new increment; 1.0 disables damping (Fig 5 sweeps 0.875..1.0).
  double damping = 1.0;
  std::uint64_t seed = 42;
};

/// The score function's configuration and its frozen noise draws. The
/// increments themselves are the dispatched score kernel
/// (cpu::score_increments_stub) over a row's logits and its cache's noise
/// row, at tau = config().temperature.at(t, T) (KeyformerPolicy).
class ScoreFunction {
 public:
  explicit ScoreFunction(ScoreFunctionConfig config);

  const ScoreFunctionConfig& config() const noexcept { return config_; }

  /// The frozen logit adjustment zeta for a cache slot: a pure function
  /// of (seed, layer, head, original position); 0 for kNone.
  double noise(std::size_t layer, std::size_t head,
               std::size_t original_pos) const;

 private:
  ScoreFunctionConfig config_;
};

}  // namespace kf::kv
