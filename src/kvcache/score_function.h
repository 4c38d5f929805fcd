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
// position)* via stateless hashing — Algorithm 1 draws zeta once and reuses
// it every step, and freezing keeps runs reproducible and order-independent.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

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

/// Computes per-token score increments for one attention head.
class ScoreFunction {
 public:
  explicit ScoreFunction(ScoreFunctionConfig config);

  const ScoreFunctionConfig& config() const noexcept { return config_; }

  /// The frozen logit adjustment zeta for a cache slot (memoized).
  double noise(std::size_t layer, std::size_t head,
               std::size_t original_pos) const;

  /// Gathers the frozen adjustments zeta for one head's cached slots into
  /// `out` (same length as `positions`): the memo table is looked up once
  /// for the whole row, then read per slot. Returns false, leaving `out`
  /// untouched, for LogitAdjustment::kNone: there is no noise row, and the
  /// score kernel takes nullptr for it.
  bool noise_row(std::size_t layer, std::size_t head,
                 std::span<const std::size_t> positions,
                 std::span<double> out) const;

  /// Drops every memoized noise table. Policies call this at sequence
  /// start so memo memory stays bounded by one sequence's positions
  /// instead of growing across every sequence a long-lived process serves.
  /// Values are pure functions of (seed, layer, head, position), so
  /// resetting never changes results.
  void reset_noise();

 private:
  double compute_noise(std::size_t layer, std::size_t head,
                       std::size_t original_pos) const;

  /// Flat memo row for (layer, head), grown to cover at least
  /// `min_positions` entries (new entries hold the NaN sentinel).
  std::vector<double>& noise_table(std::size_t layer, std::size_t head,
                                   std::size_t min_positions) const;

 public:

  /// Computes increments f_i = softmax((x_i + zeta_i) / tau) for one head
  /// over the current cache contents: noise_row() into `out`, then the
  /// dispatched score kernel (cpu::score_increments_stub) in place.
  ///   logits            one query row, length == positions.size()
  ///   positions         original positions of the cached tokens
  ///   layer/head        identify the noise stream
  ///   t / total_steps   temperature schedule inputs
  /// Writes into `out` (same length as logits).
  void increments(std::span<const float> logits,
                  std::span<const std::size_t> positions, std::size_t layer,
                  std::size_t head, std::size_t t, std::size_t total_steps,
                  std::span<double> out) const;

 private:
  /// Memoization bounds: slots addressed beyond these limits (huge
  /// positions, exotic head/layer indices) skip the memo and recompute the
  /// stateless draw directly — same value every time, just not cached —
  /// so flat indexing can never be tricked into allocating per-key.
  static constexpr std::size_t kMaxTableLayers = 1024;
  static constexpr std::size_t kMaxTableHeads = 512;
  static constexpr std::size_t kMaxTablePositions = std::size_t{1} << 22;

  ScoreFunctionConfig config_;
  /// Frozen noise realizations are pure functions of (layer, head,
  /// position); memoized because they are re-read every decoding step.
  /// Layout: one flat vector<double> per (layer, head), indexed by original
  /// position — an O(1) array read on the hot path where the old
  /// unordered_map paid a hash + probe per (layer, head, position) read.
  /// NaN marks a not-yet-drawn slot. Policies are driven from a single
  /// thread, so no locking is needed.
  mutable std::vector<std::vector<std::vector<double>>> noise_tables_;
};

}  // namespace kf::kv
