// The decoder-only transformer with eviction-policy integration — the
// inference engine of the reproduction. The model holds only weights: a
// sequence is the caller's kv::SequenceKvState (one KvCache per layer)
// plus its EvictionPolicy, which every call names, so one model serves N
// sequences concurrently and every entry point is const.
//
// Inference follows the paper's two phases (Section 2.1):
//   prefill — processes prompt tokens, populating every layer's cache and
//             letting the policy reduce it to budget k;
//   decode  — one autoregressive step against the reduced cache (appends
//             1 token, the policy evicts 1 to keep k); step_batch runs one
//             for each of N sequences, and decode over N tokens runs N
//             steps of one sequence (a resumed sequence's replay).
//
// Each layer's attend hands the sequence's EvictionPolicy every attended
// (head, row) as it produces it (observe_row, see kvcache/policy.h), and
// the policy may then compact that layer's cache (observe): once after a
// prompt chunk's rows, after each decode row.
// The planned length T of Algorithm 1 is given once, to the policy's
// begin_sequence, not to these calls.
// One forward pass serves both phases. prefill, decode and step_batch
// validate their inputs and hand a private layer loop a list of row runs
// (a prompt chunk is one run of n rows, a decode step N >= 1 runs of one
// row each, a multi-token decode one run of N decode rows) and the phase.
// Per layer the loop runs one attention call, in which each run's policy
// evicts from its own cache, and one MLP over every row.
// The final LayerNorm and the LM head then run once per run, on its last
// row: every caller reads only the logits predicting the next token. No
// row's arithmetic depends on the other rows or on the phase, so a
// sequence's logits are bit-identical whatever else shares its batch, a
// prompt chunk's logits equal its last token decoded alone, and N tokens
// decoded in one call equal N one-token calls.
//
// Tracing (obs/trace.h): the phase only names the spans. A step_batch
// call is one `step_batch` span, and so is a decode call (or each of its
// per-token forward calls); per layer it holds `attn.project` (twice:
// Q/K/V, then W_o), `attn.attend` (with the policies' `policy.score`
// spans and one `policy.observe` eviction span per decode row inside)
// and `mlp`, then one `lm_head`. A prompt chunk is
// one `prefill_chunk` span with the same phases named `prompt.project`,
// `prompt.attend` (holding one `prompt.observe`), `prompt.mlp` and
// `prompt.lm_head`, so decode shares never count prompt work. Embedding
// and the attention block's LayerNorm and residual add are the enclosing
// span's self time.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/tensor.h"
#include "kvcache/kv_state.h"
#include "kvcache/policy.h"
#include "model/attention.h"
#include "model/config.h"
#include "model/weights.h"

namespace kf::model {

using Token = std::int32_t;

/// Attention internals delivered to an instrumentation observer (sparsity
/// stats, heat maps), with the logit and probability tensors, which an
/// installed observer makes every attention call keep. Delivered after the
/// run's policy evicted. Valid only during the callback.
struct AttentionObservation {
  std::size_t layer = 0;
  const AttentionResult* attn = nullptr;
  /// Original positions of the keys the rows attended (the cache before
  /// the eviction).
  std::span<const std::size_t> key_positions;
  bool is_prompt = false;
  std::size_t decode_step = 0;
  /// Batch slot during step_batch (one observation per slot per layer);
  /// always 0 during prefill and for a one-slot decode. Observers
  /// aggregating per-sequence state must key on this, since decode_step
  /// alone repeats across concurrent sequences.
  std::size_t batch_slot = 0;
};

using AttentionObserver = std::function<void(const AttentionObservation&)>;

/// One sequence's slot in a batched decode step. Every slot must reference
/// a distinct state and a distinct policy (sequences own their score
/// state); `position` is in original sequence coordinates and `t` is the
/// sequence's own 1-based decode step.
struct DecodeSlot {
  Token token = 0;
  std::size_t position = 0;
  std::size_t t = 1;
  kv::SequenceKvState* state = nullptr;
  kv::EvictionPolicy* policy = nullptr;
};

class Transformer {
 public:
  /// Builds deterministic weights for `cfg` (see weights.h).
  explicit Transformer(ModelConfig cfg);

  const ModelConfig& config() const noexcept { return cfg_; }
  const ModelWeights& weights() const noexcept { return weights_; }

  /// A fresh per-sequence KV state shaped for this model, over its own
  /// private block pool.
  kv::SequenceKvState make_kv_state() const;

  /// Installs an attention observer (pass nullptr-equivalent {} to clear).
  void set_observer(AttentionObserver observer);

  /// Switches the position mode (Table 3 org-pos vs new-pos ablation).
  /// Applies to states filled after the switch: under RoPE the
  /// key-storage contract (pre-rotated vs raw, see model/attention.h)
  /// differs per mode, so a non-empty state must not straddle a switch.
  void set_position_mode(PositionMode mode) { cfg_.position_mode = mode; }

  /// Prompt phase: processes `tokens` (original positions
  /// first_pos..first_pos+n-1) against a state whose every layer already
  /// caches exactly `first_pos` rows — empty for a fresh prompt, an
  /// adopted shared prefix, or the earlier chunk of a chunked prefill.
  /// Each row attends its causal prefix, so its arithmetic is identical to
  /// the corresponding row of one prefill over the whole prompt (the
  /// prefix-cache parity contract) and to decoding that token alone.
  /// Returns the LM logits of the chunk's last row (those predicting the
  /// next token), shape [1, vocab].
  Tensor prefill(kv::SequenceKvState& state, std::span<const Token> tokens,
                 std::size_t first_pos, kv::EvictionPolicy& policy) const;

  /// One decode step: feeds `token` at sequence position `position`
  /// (original coordinates), decode step `t` (1-based); a one-slot
  /// step_batch. Returns the LM logits predicting the next token.
  std::vector<float> decode(kv::SequenceKvState& state, Token token,
                            std::size_t position, std::size_t t,
                            kv::EvictionPolicy& policy) const;

  /// N >= 1 decode steps of one sequence in one call: feeds tokens[i] at
  /// position + i as decode step t + i. Returns the last row's LM logits,
  /// and leaves logits, every layer's cache and the policy's state
  /// bit-identical to N one-token decode calls. Per layer, Q/K/V, W_o and
  /// the MLP run as GEMMs over all N rows, and each row is appended,
  /// attended and evicted after in turn. A policy whose layers share
  /// state (!layers_independent()), or an installed observer, gets one
  /// forward call per token instead.
  std::vector<float> decode(kv::SequenceKvState& state,
                            std::span<const Token> tokens,
                            std::size_t position, std::size_t t,
                            kv::EvictionPolicy& policy) const;

  /// One decode step for each of N >= 1 independent sequences sharing
  /// these weights: per layer, one attention call over every slot's row,
  /// each against its own cache and scored by its own policy, then each
  /// slot's policy possibly compacting only its own cache. Returns LM
  /// logits, shape [N, vocab], row per slot; each row is bit-identical to
  /// decoding that sequence alone.
  Tensor step_batch(std::span<const DecodeSlot> slots) const;

 private:
  /// One sequence's consecutive rows in a forward pass: a prompt chunk,
  /// or one sequence's decode rows.
  struct RowRun {
    std::span<const Token> tokens;
    std::span<const std::size_t> positions;  ///< original, one per token
    /// The first row's t; 0 in a prompt chunk (AttentionRun::decode_step).
    std::size_t decode_step = 0;
    kv::SequenceKvState* state = nullptr;
    kv::EvictionPolicy* policy = nullptr;
  };

  /// The layer loop behind prefill, decode and step_batch: embeds every
  /// run's tokens, then per layer runs decoder_attention over all rows
  /// (each run's policy scoring its rows and evicting from its own cache)
  /// and decoder_mlp. Returns LM logits, one row per run (of its last
  /// token), runs in order.
  Tensor forward(std::span<const RowRun> runs, Phase phase) const;
  /// Embeds one token at `position` into `dst` (d_model floats). Throws
  /// std::out_of_range for a token outside the vocabulary, or a learned
  /// position past the position table.
  void embed_row(Token token, std::size_t position, std::span<float> dst) const;
  /// Final LayerNorm, then the LM head as one GEMM, over each run's last
  /// row of `x` (the runs' rows back to back): [runs.size(), vocab]. The
  /// head is untied, a [d_model, vocab] copy of the raw embedding
  /// directions (weights.h).
  Tensor lm_logits(const Tensor& x, std::span<const RowRun> runs) const;

  ModelConfig cfg_;
  ModelWeights weights_;
  AttentionObserver observer_;
};

}  // namespace kf::model
