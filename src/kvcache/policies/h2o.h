// H2O — Heavy-Hitter Oracle (Zhang et al., 2023), the paper's main
// baseline. Score function f_theta(acc attn): accumulated post-softmax
// attention probability; keep = recent window w  ∪  top-(k-w) heavy
// hitters among the older tokens.
//
// An optional exponential damping factor alpha implements the Section
// 2.3.3 study (Fig 5): f <- alpha * f before each accumulation step;
// alpha == 1 is canonical H2O.
#pragma once

#include "kvcache/policy.h"

namespace kf::kv {

class H2OPolicy final : public EvictionPolicy {
 public:
  explicit H2OPolicy(double damping = 1.0);

  std::string name() const override { return "h2o"; }

  /// Damps the accumulated scores (alpha < 1 only).
  void begin_attend(const PolicyContext& ctx) override;
  void observe_row(KvCache& cache, std::size_t head,
                   std::span<const float> logits,
                   std::span<const float> probs) override;
  void observe(const PolicyContext& ctx) override;

  double damping() const noexcept { return damping_; }

 private:
  double damping_;
};

}  // namespace kf::kv
