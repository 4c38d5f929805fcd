// Multi-head causal self-attention over a KvCache.
//
// Per (head, query row) the fused kernel produces the scaled unnormalized
// logits x_i = QK^T/sqrt(d) and the post-softmax probabilities over the
// row's visible prefix, the two arrays every score function in the paper
// consumes (H2O accumulates the probabilities, Keyformer regularizes the
// logits). Each row lands in per-thread scratch and goes straight to its
// run's policy (EvictionPolicy::observe_row, kvcache/policy.h), so no
// [heads x rows x keys] tensor exists on the serving path. A caller that
// instruments the attention (model::AttentionObserver) asks for the
// Internals::kKeep tensors instead, which the rows are written into and
// scored from.
//
// Positioning and the append-time rotation contract:
//   - RoPE + PositionMode::kOriginal (the default): a token's effective
//     position is its original sequence position, which never changes once
//     appended — so keys are rotated *once at append time* and stored
//     rotated. No per-step re-rotation of the whole cache.
//   - RoPE + PositionMode::kNew (Table 3 ablation): the effective position
//     is the token's current slot index, which changes on compaction — so
//     keys are stored unrotated and rotated at attention time, each
//     cached key once per call.
//   - ALiBi / learned: keys are stored as projected.
// Every RoPE rotation (keys at append, kNew's cached keys, query rows)
// reads the model's RopeTable (model/positional.h), passed in by the
// caller: one cos/sin row per position, shared read-only by every layer,
// head, sequence and thread. A position at or past the table's end
// computes its angles instead, with the same bits.
// Causal masking always uses original order. Switching position_mode only
// takes effect for caches filled after the switch, so a cache must not
// straddle a mode change: callers fill a fresh sequence state after one.
//
// One call for prompt and decode rows, no knobs. A call takes the rows
// of one or more sequences, each sequence's rows a consecutive *run* of
// `x` (a prompt chunk is one run of n rows; a decode step is B runs of one
// row each; a resumed sequence's replay is one run of n decode rows).
// Q/K/V are one GEMM per weight over every row of the call. Each run then
// goes in rounds: a prompt chunk is one round over all its rows, a decode
// run one round per row. A round appends its K/V rows to the run's cache,
// lets the run's policy begin its attend, attends the rows and lets the
// policy evict, so a decode run of n rows leaves the cache n one-row runs
// would. Every query row attends the cache prefix its position makes
// visible (cached positions ascend, so causality is a prefix) through the
// dispatched fused attend:
// per-head dots streaming the cache's contiguous head-major key segments
// (one per cache block) clipped to that prefix, then one pass doing
// softmax + weighted-value accumulation. A run's rows attend four at a
// time (cpu::attend_rows), so each key and value row is read once per
// block of rows; each row keeps the one-row arithmetic. Kept tensors hold
// -inf logits and 0 probabilities past each row's prefix.
// W_o is one more GEMM over every row. A GEMM row's bits never depend on
// the other rows, and the attend never spans sequences, so a row's bits
// depend neither on the rest of its call nor on whether it came from a
// prompt or a decode step: a prompt row equals its token decoded alone.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/tensor.h"
#include "kvcache/kv_cache.h"
#include "kvcache/policy.h"
#include "model/config.h"
#include "model/positional.h"
#include "model/weights.h"

namespace kf::model {

/// Attention internals for one layer invocation.
struct AttentionResult {
  Tensor context;  ///< [n_q, d_model] — heads merged and projected by W_o
  /// [n_heads, n_q, key_len] with Internals::kKeep, masked entries -inf;
  /// empty otherwise.
  Tensor logits;
  /// [n_heads, n_q, key_len] with Internals::kKeep, masked entries 0;
  /// empty otherwise.
  Tensor probs;
  /// With Internals::kKeep, the original positions of the key_len keys
  /// the rows attended, copied before the run's policy evicted; empty
  /// otherwise.
  std::vector<std::size_t> key_positions;
  std::size_t n_q = 0;
  std::size_t key_len = 0;  ///< keys the run's last round attended
};

/// One sequence's rows in an attention call: its tokens' original
/// positions (strictly increasing, above every position cached in `cache`),
/// its own cache for this layer, and the policy that scores its rows.
struct AttentionRun {
  std::span<const std::size_t> positions;
  kv::KvCache* cache = nullptr;
  /// Per round, gets begin_attend once the round's rows are appended,
  /// observe_row for each attended (head, row), then observe; null
  /// attends without scoring or evicting.
  kv::EvictionPolicy* policy = nullptr;
  std::size_t layer = 0;  ///< the policy's PolicyContext::layer
  /// 0 for a prompt chunk, one round over all rows. Otherwise the rows
  /// are decode rows, one round each: row i runs as decode step
  /// decode_step + i (PolicyContext::decode_step).
  std::size_t decode_step = 0;
};

/// Whether self_attention also returns the logit and probability tensors.
enum class Internals { kDrop, kKeep };

/// The inference phase a call serves (paper Section 2.1). Attention uses
/// it only to name its trace spans: `prompt.*` for prompt chunks, `attn.*`
/// for decode steps, so decode shares never count prompt work.
enum class Phase { kPrompt, kDecode };

/// Multi-head causal self-attention over every row of `x` ([rows, d_model],
/// the runs' rows back to back). Per round of each run (AttentionRun),
/// appends the round's K/V rows to the run's cache, attends each row
/// against its causal prefix of that cache and lets the policy evict.
/// `rope` is the model's table (ModelWeights::rope); only RoPE reads it.
/// Runs must name distinct caches and distinct (or null) policies.
/// Returns one result per run, in run order, with the logit and
/// probability tensors only under Internals::kKeep, which takes runs of
/// one round (a prompt chunk or one decode row). Runs attend in parallel
/// on the thread pool; a lone prompt chunk of several rows splits its
/// heads across the pool instead, so each head's rows reach the policy in
/// ascending order. A one-row round, or one whose policy
/// scores_heads_in_order(), attends all heads in order on one worker.
/// Traced as `prompt.project`/`attn.project` (Q/K/V, then W_o) and
/// `prompt.attend`/`attn.attend` (append, attend, and the policies'
/// scoring hooks and `prompt.observe`/`policy.observe` evictions).
std::vector<AttentionResult> self_attention(const ModelConfig& cfg,
                                            const LayerWeights& w,
                                            const RopeTable& rope,
                                            const Tensor& x,
                                            std::span<const AttentionRun> runs,
                                            Phase phase, Internals internals);

/// True when cached keys are stored pre-rotated: RoPE with immutable
/// effective positions (PositionMode::kOriginal).
constexpr bool keys_stored_rotated(const ModelConfig& cfg) noexcept {
  return cfg.positional == PositionalKind::kRoPE &&
         cfg.position_mode == PositionMode::kOriginal;
}

}  // namespace kf::model
