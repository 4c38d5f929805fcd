// Eviction-policy interface shared by every KV-cache reduction scheme in
// the paper: Full, Window, Dilated Window, Random, Key Attention (top-k
// only), H2O, StreamingLLM, and Keyformer.
//
// Runtime contract (Algorithm 1's phases), per layer of every forward call
// and per sequence in it:
//   1. The model appends the call's K/V rows to the layer's cache and calls
//      `begin_attend`: damping and per-call score state (Keyformer draws
//      zeta for the appended rows and sets tau for this step).
//   2. The attend scores each (head, query row) as it produces it: after
//      each fused kernel call, which attends a block of up to four rows of
//      one head, it hands `observe_row` each of the block's rows in order:
//      the row's scaled logits x = QK^T/sqrt(d) and post-softmax
//      probabilities over its visible cache prefix, in scratch the next
//      block overwrites. The policy adds the row into its accumulated
//      scores. No [heads x rows x keys] tensor exists unless an
//      instrumentation observer asks for one.
//   3. Once those rows are attended, `observe` selects a keep-set and, if
//      the cache exceeds its budget k, compacts it to exactly k tokens.
//      A prompt chunk runs 1-3 once over all its rows, so it evicts once;
//      a sequence's n decode rows run 1-3 once per row, at steps t .. t +
//      n - 1, so each row sees the cache n one-token calls would give it.
//      Several decode rows of one sequence go layer by layer (all rows of
//      layer 0, then of layer 1) only when layers_independent().
//   4. Budgets are static for the whole generation: k tokens total,
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

/// One sequence's side of one round of a layer's attention call (a prompt
/// chunk, or one decode row), as begin_attend and observe see it. The
/// cache holds the round's appended rows: in begin_attend before any row
/// is attended, in observe after every row is.
struct PolicyContext {
  std::size_t layer = 0;
  std::size_t decode_step = 0;  ///< t in Algorithm 1 (0 in a prompt chunk)
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

  /// Resets per-sequence state. Default: stores the info, which the hooks
  /// read as sequence_ (Keyformer's tau schedule reads T there).
  virtual void begin_sequence(const SequenceInfo& info) { sequence_ = info; }

  /// True when observe_row must see one sequence's heads in head order on
  /// one thread (Keyformer's shared scope adds every head into one table).
  /// Otherwise the attend may score different heads on different workers.
  virtual bool scores_heads_in_order() const { return false; }

  /// True when a layer's keep decision reads nothing that another layer's
  /// calls write, so one sequence's decode rows may run layer by layer
  /// (Transformer::decode over several tokens). False when layers share
  /// state whose order matters: then every decode row runs through all
  /// layers before the next row starts.
  virtual bool layers_independent() const { return true; }

  /// Once per round (a prompt chunk, or one decode row), after its rows
  /// are appended to ctx.cache and before any is attended. Default:
  /// nothing.
  virtual void begin_attend(const PolicyContext& /*ctx*/) {}

  /// Scores one attended (head, query row) of `cache`: `logits` and
  /// `probs` cover the row's visible prefix [0, vis) of the cache, valid
  /// only during the call. Per head, rows arrive in ascending order; calls
  /// for different heads of one sequence may run concurrently unless
  /// scores_heads_in_order(). Default: nothing (the policy keeps no score).
  virtual void observe_row(KvCache& /*cache*/, std::size_t /*head*/,
                           std::span<const float> /*logits*/,
                           std::span<const float> /*probs*/) {}

  /// After the round's rows are attended: may select a keep-set and
  /// compact ctx.cache. The attend traces each call as `policy.observe`
  /// (`prompt.observe` for a prompt chunk) inside its attend span;
  /// Keyformer and H2O trace `policy.evict` (keep-set selection +
  /// compaction, only when over budget) inside it, and their begin_attend
  /// and observe_row as `policy.score`.
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
