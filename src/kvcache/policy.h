// Eviction-policy interface shared by every KV-cache reduction scheme in
// the paper: Full, Window, Dilated Window, Random, Key Attention (top-k
// only), H2O, StreamingLLM, and Keyformer.
//
// Runtime contract (matches Algorithm 1's phases):
//   1. The model runs attention for a layer; for each head it produces the
//      scaled unnormalized logits x = QK^T/sqrt(d) and the post-softmax
//      probabilities over the *current* cache contents.
//   2. The runtime calls `observe` with those arrays. The policy updates
//      its accumulated score state and, if the cache exceeds its budget k,
//      selects a keep-set and compacts the cache to exactly k tokens.
//   3. Budgets are static for the whole generation: k tokens total,
//      w = recent window, k - w key tokens (Section 3.4).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kvcache/kv_cache.h"

namespace kf::kv {

class EvictionTelemetry;  // kvcache/eviction_telemetry.h

/// Static cache budget for one generation.
struct CacheBudget {
  std::size_t max_tokens = 0;     ///< k; 0 means unlimited (full attention)
  std::size_t recent_window = 0;  ///< w <= max_tokens
};

/// Derives the paper's budget from ratios: k = ceil(cache_ratio * prompt_len)
/// (floored at 4 so the smallest caches stay usable), w = round(recent_ratio
/// * k), clamped to [1, k-1] whenever k allows key tokens at all.
CacheBudget make_budget(std::size_t prompt_len, double cache_ratio,
                        double recent_ratio = 0.3);

/// Everything a policy may look at after one attention call for one layer.
struct PolicyContext {
  std::size_t layer = 0;
  std::size_t n_heads = 0;
  std::size_t n_queries = 0;  ///< rows processed (prompt_len during prefill)
  std::size_t key_len = 0;    ///< cache length the attention ran against
  /// Scaled unnormalized logits, layout [head][query][key]; entry (h,q,i) is
  /// x_i for query q. The queries are the cache's newest n_queries rows, so
  /// query q sees keys [0, key_len - n_queries + q + 1); the causally
  /// masked tail after them holds -inf.
  std::span<const float> logits;
  /// Post-softmax probabilities, same layout; masked entries hold 0.
  std::span<const float> probs;
  std::size_t decode_step = 0;  ///< t in Algorithm 1 (0 during prompt)
  KvCache* cache = nullptr;     ///< the layer's cache (never null)
};

/// Per-sequence info handed to policies before the prompt is processed:
/// the one place a sequence's planned length T is given.
struct SequenceInfo {
  std::size_t prompt_len = 0;
  std::size_t total_steps = 0;  ///< T, the planned generation length
};

/// Base class for all eviction policies.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Identifier used in tables ("keyformer", "h2o", ...).
  virtual std::string name() const = 0;

  /// False for policies that never trim the cache regardless of budget
  /// (full attention). Serving admission uses this to charge such
  /// sequences their real prompt+gen growth instead of the budget.
  virtual bool evicts() const { return true; }

  /// Sets the static budget (call before begin_sequence).
  void set_budget(CacheBudget budget) { budget_ = budget; }
  const CacheBudget& budget() const noexcept { return budget_; }

  /// Resets per-sequence state. Default: stores the info, which observe()
  /// reads as sequence_ (Keyformer's tau schedule reads T there).
  virtual void begin_sequence(const SequenceInfo& info) { sequence_ = info; }

  /// Observes one layer's attention output; may compact ctx.cache.
  /// Keyformer and H2O trace the two phases as `policy.score` (score
  /// accumulation) and `policy.evict` (keep-set selection + compaction,
  /// only when over budget), inside the caller's observe span.
  virtual void observe(const PolicyContext& ctx) = 0;

  /// Installs an eviction-introspection sink (nullptr disables): every
  /// keep/evict decision this policy executes is recorded into it before
  /// the cache is compacted (see kvcache/eviction_telemetry.h). The sink
  /// is per sequence, written only by this policy's observe().
  void set_eviction_sink(EvictionTelemetry* sink) { eviction_sink_ = sink; }

 protected:
  EvictionTelemetry* eviction_sink_ = nullptr;

  /// Records the decision into the eviction sink (when installed) and
  /// compacts `ctx.cache` to the sorted `keep` set — the one funnel every
  /// evicting policy's observe() routes its compaction through.
  void compact_cache(const PolicyContext& ctx,
                     std::span<const std::size_t> keep);
  /// True when the cache is over budget and eviction applies.
  bool over_budget(const KvCache& cache) const {
    return budget_.max_tokens > 0 && cache.size() > budget_.max_tokens;
  }

  CacheBudget budget_;
  SequenceInfo sequence_;
};

/// Selects `keep_count` indices with the highest `scores` from the index
/// range [0, prefix_len) and returns them merged (ascending) with the full
/// range [prefix_len, n). Deterministic tie-break: lower index wins.
std::vector<std::size_t> keep_topk_plus_recent(std::span<const double> scores,
                                               std::size_t n,
                                               std::size_t prefix_len,
                                               std::size_t keep_count);

/// Sum of per-head accumulated scores for each cached token.
std::vector<double> head_aggregated_scores(const KvCache& cache);

}  // namespace kf::kv
