// "Key Attention" from Fig 3c: rank purely by accumulated attention score
// and keep the global top-k — *without* a guaranteed recent window. The
// paper uses this to show that key tokens alone (like recency alone) are
// insufficient, motivating the mixed approach.
#pragma once

#include "kvcache/policy.h"

namespace kf::kv {

class KeyAttentionPolicy final : public EvictionPolicy {
 public:
  std::string name() const override { return "key_attention"; }
  void observe_row(KvCache& cache, std::size_t head,
                   std::span<const float> logits,
                   std::span<const float> probs) override;
  void observe(const PolicyContext& ctx) override;
};

/// Shared helper: adds one attended row's post-softmax probabilities (its
/// visible prefix) to `head`'s accumulated scores in `cache`. This is the
/// f_theta(acc attn) accumulation used by H2O and KeyAttention.
void add_attention_probs(KvCache& cache, std::size_t head,
                         std::span<const float> probs);

}  // namespace kf::kv
