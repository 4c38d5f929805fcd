#include "kvcache/policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kvcache/eviction_telemetry.h"

namespace kf::kv {

void EvictionPolicy::compact_cache(const PolicyContext& ctx,
                                   std::span<const std::size_t> keep) {
  if (eviction_sink_ != nullptr) {
    eviction_sink_->record_decision(*ctx.cache, keep);
  }
  ctx.cache->compact(keep);
}

CacheBudget make_budget(std::size_t prompt_len, double cache_ratio,
                        double recent_ratio) {
  CacheBudget b;
  if (cache_ratio <= 0.0 || cache_ratio >= 1.0) {
    return b;  // unlimited: full attention
  }
  const double raw_k =
      std::ceil(cache_ratio * static_cast<double>(prompt_len));
  b.max_tokens = std::max<std::size_t>(4, static_cast<std::size_t>(raw_k));
  b.max_tokens = std::min(b.max_tokens, prompt_len);
  const double raw_w =
      std::round(recent_ratio * static_cast<double>(b.max_tokens));
  b.recent_window = static_cast<std::size_t>(std::max(1.0, raw_w));
  if (b.max_tokens > 1) {
    b.recent_window = std::min(b.recent_window, b.max_tokens - 1);
  } else {
    b.recent_window = b.max_tokens;
  }
  return b;
}

std::vector<std::size_t> keep_topk_plus_recent(std::span<const double> scores,
                                               std::size_t n,
                                               std::size_t prefix_len,
                                               std::size_t keep_count) {
  assert(prefix_len <= n && scores.size() >= prefix_len);
  keep_count = std::min(keep_count, prefix_len);
  // The strict order: higher score first, the lower index wins ties.
  const auto before = [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };

  std::vector<std::size_t> keep;
  keep.reserve(keep_count + (n - prefix_len));
  if (keep_count < prefix_len) {
    // The first prefix token the order leaves out; exactly keep_count
    // tokens precede it, and one pass in index order collects them sorted.
    std::size_t cut = 0;
    if (keep_count + 1 == prefix_len) {
      // One token leaves (every decode step once the cache is at budget):
      // the last in the order, found in one pass.
      for (std::size_t i = 1; i < prefix_len; ++i) {
        if (before(cut, i)) cut = i;
      }
    } else {
      std::vector<std::size_t> order(prefix_len);
      for (std::size_t i = 0; i < prefix_len; ++i) order[i] = i;
      std::nth_element(order.begin(), order.begin() + keep_count, order.end(),
                       before);
      cut = order[keep_count];
    }
    for (std::size_t i = 0; i < prefix_len; ++i) {
      if (before(i, cut)) keep.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < prefix_len; ++i) keep.push_back(i);
  }
  for (std::size_t i = prefix_len; i < n; ++i) keep.push_back(i);
  return keep;
}

std::vector<double> head_aggregated_scores(const KvCache& cache) {
  std::vector<double> total(cache.size(), 0.0);
  for (std::size_t h = 0; h < cache.n_heads(); ++h) {
    const auto s = cache.scores(h);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += s[i];
  }
  return total;
}

}  // namespace kf::kv
