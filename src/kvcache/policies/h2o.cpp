#include "kvcache/policies/h2o.h"

#include <stdexcept>

#include "kvcache/policies/key_attention.h"
#include "obs/trace.h"

namespace kf::kv {

H2OPolicy::H2OPolicy(double damping) : damping_(damping) {
  if (damping_ <= 0.0 || damping_ > 1.0) {
    throw std::invalid_argument("H2O damping must be in (0, 1]");
  }
}

void H2OPolicy::begin_attend(const PolicyContext& ctx) {
  if (damping_ < 1.0) {
    KF_TRACE_SCOPE("policy.score", "policy");
    ctx.cache->damp_scores(damping_);
  }
}

void H2OPolicy::observe_row(KvCache& cache, std::size_t head,
                            std::span<const float> /*logits*/,
                            std::span<const float> probs) {
  KF_TRACE_SCOPE("policy.score", "policy");
  add_attention_probs(cache, head, probs);
}

void H2OPolicy::observe(const PolicyContext& ctx) {
  KvCache& cache = *ctx.cache;
  if (!over_budget(cache)) return;
  KF_TRACE_SCOPE("policy.evict", "policy");

  const std::size_t n = cache.size();
  const std::size_t k = budget_.max_tokens;
  const std::size_t w = std::min(budget_.recent_window, k);
  const std::size_t prefix = n - std::min(w, n);

  const std::vector<double> total = head_aggregated_scores(cache);
  const auto keep = keep_topk_plus_recent(total, n, prefix, k - w);
  compact_cache(ctx, keep);
}

}  // namespace kf::kv
