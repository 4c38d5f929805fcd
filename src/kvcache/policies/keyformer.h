// Keyformer (Algorithm 1) — the paper's contribution.
//
// Per decoding step and per head, the score function adds
//   f(i) += softmax over cache of ((x_i + zeta_i) / tau)
// where zeta_i is frozen Gumbel noise per cache slot (configurable to
// Gaussian / constant / none for the Table 4 ablation) and tau follows the
// linear schedule tau_init -> tau_end over the generation (Eq. 10). Each
// slot's zeta is drawn once, into the layer cache's noise row, and
// travels with the row through compaction and prefix adoption.
//
// Keep-set: the w most recent tokens plus the top-(k-w) tokens of the
// accumulated score over the older prefix.
//
// Accumulation modes (Section 4.4.1, Table 3):
//   - kPerLayer (paper default/winner): f_theta lives in each layer's
//     cache, per head; heads are aggregated only for ranking.
//   - kShared: one global f_theta indexed by original token position,
//     accumulated across every layer and head. Damping applies to the
//     per-layer scores only, so this scope refuses damping < 1.
#pragma once

#include <vector>

#include "kvcache/policy.h"
#include "kvcache/score_function.h"

namespace kf::kv {

/// Where the accumulated score function lives.
enum class ScoreScope { kPerLayer, kShared };

struct KeyformerConfig {
  ScoreFunctionConfig score;
  ScoreScope scope = ScoreScope::kPerLayer;
};

class KeyformerPolicy final : public EvictionPolicy {
 public:
  /// Throws std::invalid_argument for damping < 1 with ScoreScope::kShared.
  explicit KeyformerPolicy(KeyformerConfig config = {});

  std::string name() const override { return "keyformer"; }

  void begin_sequence(const SequenceInfo& info) override;
  /// Shared scope adds every head into one position table, in head order.
  bool scores_heads_in_order() const override {
    return config_.scope == ScoreScope::kShared;
  }
  /// Shared scope ranks every layer by one table all layers add into.
  bool layers_independent() const override {
    return config_.scope == ScoreScope::kPerLayer;
  }
  /// Damps, draws zeta for the appended rows and sets tau for the step.
  void begin_attend(const PolicyContext& ctx) override;
  /// Adds softmax((x + zeta) / tau) over the row to the head's scores.
  void observe_row(KvCache& cache, std::size_t head,
                   std::span<const float> logits,
                   std::span<const float> probs) override;
  void observe(const PolicyContext& ctx) override;

  const KeyformerConfig& config() const noexcept { return config_; }

  /// Shared-mode accumulated scores indexed by original position
  /// (empty in per-layer mode). Exposed for tests and analysis benches.
  std::span<const double> shared_scores() const noexcept {
    return shared_scores_;
  }

 private:
  KeyformerConfig config_;
  ScoreFunction score_fn_;
  std::vector<double> shared_scores_;  // indexed by original position
  double tau_ = 1.0;                   // this call's tau, set by begin_attend
};

}  // namespace kf::kv
