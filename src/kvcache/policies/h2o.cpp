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

void H2OPolicy::observe(const PolicyContext& ctx) {
  KvCache& cache = *ctx.cache;
  {
    KF_TRACE_SCOPE("policy.score", "policy");
    if (damping_ < 1.0) cache.damp_scores(damping_);
    accumulate_attention_probs(ctx);
  }
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
