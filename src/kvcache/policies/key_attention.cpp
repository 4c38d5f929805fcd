#include "kvcache/policies/key_attention.h"

#include <cassert>

namespace kf::kv {

void add_attention_probs(KvCache& cache, std::size_t head,
                         std::span<const float> probs) {
  assert(probs.size() <= cache.size());
  const auto scores = cache.scores(head);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    scores[i] += static_cast<double>(probs[i]);
  }
}

void KeyAttentionPolicy::observe_row(KvCache& cache, std::size_t head,
                                     std::span<const float> /*logits*/,
                                     std::span<const float> probs) {
  add_attention_probs(cache, head, probs);
}

void KeyAttentionPolicy::observe(const PolicyContext& ctx) {
  KvCache& cache = *ctx.cache;
  if (!over_budget(cache)) return;

  const std::vector<double> total = head_aggregated_scores(cache);
  // No protected recent window: pure top-k over the whole cache.
  const auto keep = keep_topk_plus_recent(total, cache.size(), cache.size(),
                                          budget_.max_tokens);
  compact_cache(ctx, keep);
}

}  // namespace kf::kv
