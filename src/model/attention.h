// Multi-head causal self-attention over a KvCache.
//
// The kernel exposes both the scaled unnormalized logits x_i = QK^T/sqrt(d)
// and the post-softmax probabilities for every (head, query, key) — the two
// arrays every score function in the paper consumes (H2O accumulates the
// probabilities, Keyformer regularizes the logits).
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
// row each). Q/K/V are one GEMM per weight over every row of the call;
// each run's K/V rows are appended to its own cache; every query row then
// attends the cache prefix its position makes visible (cached positions
// ascend, so causality is a prefix) through the dispatched fused attend:
// per-head dots streaming the cache's contiguous head-major key segments
// (one per cache block) clipped to that prefix, then one pass doing
// softmax + weighted-value accumulation; the masked tail gets -inf logits
// and 0 probabilities.
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
#include "model/config.h"
#include "model/positional.h"
#include "model/weights.h"

namespace kf::model {

/// Attention internals for one layer invocation.
struct AttentionResult {
  Tensor context;  ///< [n_q, d_model] — heads merged and projected by W_o
  Tensor logits;   ///< [n_heads, n_q, key_len]; masked entries = -inf
  Tensor probs;    ///< [n_heads, n_q, key_len]; masked entries = 0
  std::size_t n_q = 0;
  std::size_t key_len = 0;
};

/// One sequence's rows in an attention call: its tokens' original
/// positions (strictly increasing, above every position cached in `cache`)
/// and its own cache for this layer.
struct AttentionRun {
  std::span<const std::size_t> positions;
  kv::KvCache* cache = nullptr;
};

/// The inference phase a call serves (paper Section 2.1). Attention uses
/// it only to name its trace spans: `prompt.*` for prompt chunks, `attn.*`
/// for decode steps, so decode shares never count prompt work.
enum class Phase { kPrompt, kDecode };

/// Multi-head causal self-attention over every row of `x` ([rows, d_model],
/// the runs' rows back to back). Appends each run's new K/V rows to its
/// cache, then attends each row against its causal prefix of that cache.
/// `rope` is the model's table (ModelWeights::rope); only RoPE reads it.
/// Runs must name distinct caches. Returns one result per run, in run
/// order. Runs append and attend in parallel on the thread pool; a lone
/// run (a prompt chunk, or a one-sequence step) splits its rows across
/// the pool instead. Traced as `prompt.project`/`attn.project` (Q/K/V,
/// then W_o) and `prompt.attend`/`attn.attend` (append + attend).
std::vector<AttentionResult> self_attention(const ModelConfig& cfg,
                                            const LayerWeights& w,
                                            const RopeTable& rope,
                                            const Tensor& x,
                                            std::span<const AttentionRun> runs,
                                            Phase phase);

/// True when cached keys are stored pre-rotated: RoPE with immutable
/// effective positions (PositionMode::kOriginal).
constexpr bool keys_stored_rotated(const ModelConfig& cfg) noexcept {
  return cfg.positional == PositionalKind::kRoPE &&
         cfg.position_mode == PositionMode::kOriginal;
}

}  // namespace kf::model
