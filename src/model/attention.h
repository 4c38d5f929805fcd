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
//     keys are stored unrotated and rotated at attention time.
//   - ALiBi / learned: keys are stored as projected.
// Causal masking always uses original order. Switching position_mode only
// takes effect for caches (re)filled after the switch — callers reset the
// cache between mode changes (all in-repo callers do).
//
// Two kernels, no knobs:
//   - attention_forward_general: n_q rows of one sequence (prefill and
//     prompt chunks). It is also the oracle the decode kernel is
//     parity-tested against.
//   - attention_decode_batch: B >= 1 sequences decoding one token each —
//     per-row vecmat QKV and output projections, then, in parallel across
//     sequences, the append and a fused per-head attend over each
//     sequence's own cache (per-head dots streaming the cache's
//     contiguous head-major key segments, one per head for the classic
//     arena or one per block for a paged cache, then one pass doing
//     softmax + weighted-value accumulation). Every row runs the same
//     arithmetic whatever else shares its batch, so a sequence's bits are
//     independent of batch composition.
#pragma once

#include <cstddef>
#include <span>

#include "core/tensor.h"
#include "kvcache/kv_cache.h"
#include "model/config.h"
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

/// Wall-clock accumulator for the decode-latency breakdown
/// (bench_decode_throughput). Pass nullptr to skip timing entirely.
struct AttentionTimings {
  double project_seconds = 0.0;  ///< QKV + output projections
  double attend_seconds = 0.0;   ///< KV append + dots + softmax + weighted
                                 ///< values (same split on both kernels)
};

/// Projects `x` (n_q rows that continue the sequence) to Q/K/V, appends the
/// new K/V rows to `cache` at `q_positions` (strictly increasing original
/// positions), then attends each query against the full cache.
AttentionResult attention_forward_general(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const std::size_t> q_positions, kv::KvCache& cache,
    AttentionTimings* timings = nullptr);

/// One sequence's slot in a batched decode step: the new token's original
/// sequence position and the sequence's own cache for this layer.
struct DecodeBatchSlot {
  std::size_t q_position = 0;
  kv::KvCache* cache = nullptr;
};

/// The decode kernel, for any batch size B >= 1: row b of `x`
/// ([B, d_model]) is the new token of the sequence in slots[b], whose
/// `q_position` must exceed every position cached in its own cache. Q/K/V
/// and the output are projected one row at a time with vecmat; each
/// sequence's append + per-head fused attend runs against its own cache,
/// in parallel across sequences (callers guarantee distinct caches).
/// Sequences never read each other's caches and no arithmetic spans rows,
/// so each slot's result is bit-identical to a batch of one.
std::vector<AttentionResult> attention_decode_batch(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const DecodeBatchSlot> slots,
    AttentionTimings* timings = nullptr);

/// True when cached keys are stored pre-rotated: RoPE with immutable
/// effective positions (PositionMode::kOriginal).
constexpr bool keys_stored_rotated(const ModelConfig& cfg) noexcept {
  return cfg.positional == PositionalKind::kRoPE &&
         cfg.position_mode == PositionMode::kOriginal;
}

}  // namespace kf::model
