#include "kvcache/policies/key_attention.h"

#include <cassert>

namespace kf::kv {

void accumulate_attention_probs(const PolicyContext& ctx) {
  KvCache& cache = *ctx.cache;
  assert(ctx.key_len == cache.size() && ctx.n_queries <= ctx.key_len);
  assert(ctx.probs.size() >= ctx.n_heads * ctx.n_queries * ctx.key_len);
  // Query row q sees the first first_q + q + 1 keys; its masked tail holds
  // exact zeros, so only the visible prefix is added. A decode row sees
  // the whole cache.
  const std::size_t first_q = ctx.key_len - ctx.n_queries;
  for (std::size_t h = 0; h < ctx.n_heads; ++h) {
    const auto scores = cache.scores(h);
    const float* base = ctx.probs.data() + h * ctx.n_queries * ctx.key_len;
    for (std::size_t q = 0; q < ctx.n_queries; ++q) {
      const float* row = base + q * ctx.key_len;
      const std::size_t vis = first_q + q + 1;
      for (std::size_t i = 0; i < vis; ++i) {
        scores[i] += static_cast<double>(row[i]);
      }
    }
  }
}

void KeyAttentionPolicy::observe(const PolicyContext& ctx) {
  accumulate_attention_probs(ctx);
  KvCache& cache = *ctx.cache;
  if (!over_budget(cache)) return;

  const std::vector<double> total = head_aggregated_scores(cache);
  // No protected recent window: pure top-k over the whole cache.
  const auto keep = keep_topk_plus_recent(total, cache.size(), cache.size(),
                                          budget_.max_tokens);
  compact_cache(ctx, keep);
}

}  // namespace kf::kv
