// The decoder-only transformer with per-layer KV caches and eviction-policy
// integration — the inference engine of the reproduction.
//
// Inference follows the paper's two phases (Section 2.1):
//   prefill(prompt)  — processes the whole prompt, populating every layer's
//                      cache and letting the policy reduce it to budget k;
//   decode(token)    — one autoregressive step against the reduced cache
//                      (appends 1 token, the policy evicts 1 to keep k).
//
// After every layer's attention the active EvictionPolicy observes the
// scaled logits and probabilities and may compact that layer's cache.
//
// Sequence state is externalized: a SequenceKvState (one KvCache per layer)
// can be owned by the caller, so one model serves N sequences concurrently
// — each prefill/decode/step_batch call names the state it runs against.
// The no-state overloads operate on a model-owned default state, keeping
// the classic "one model, one sequence" usage working unchanged.
// One forward pass serves both phases. prefill_continue and step_batch
// validate their inputs and hand a private layer loop a list of row runs
// (a prompt chunk is one run of n rows, a decode step N >= 1 runs of one
// row each) and the phase. Per layer the loop runs one attention call and
// one MLP over every row, and between them each run's policy over its own
// cache. The final LayerNorm and the LM head then run once per run, on its
// last row: every caller reads only the logits predicting the next token.
// No row's arithmetic depends on the other rows or on the phase, so a
// sequence's logits are bit-identical whatever else shares its batch, and
// a prompt chunk's logits equal its last token decoded alone.
//
// Tracing (obs/trace.h): the phase only names the spans. A step_batch
// call is one `step_batch` span; per layer it holds `attn.project` (twice:
// Q/K/V, then W_o), `attn.attend`, `policy.observe` and `mlp`, then one
// `lm_head`. A prompt chunk is one `prefill_chunk` span with the same
// phases named `prompt.project`, `prompt.attend`, `prompt.observe`,
// `prompt.mlp` and `prompt.lm_head`, so decode shares never count prompt
// work. Embedding and the attention block's LayerNorm and residual add
// are the enclosing span's self time.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/tensor.h"
#include "kvcache/kv_cache.h"
#include "kvcache/kv_state.h"
#include "kvcache/policy.h"
#include "model/attention.h"
#include "model/config.h"
#include "model/weights.h"

namespace kf::model {

using Token = std::int32_t;

/// Attention internals delivered to an instrumentation observer (sparsity
/// stats, heat maps). Valid only during the callback.
struct AttentionObservation {
  std::size_t layer = 0;
  const AttentionResult* attn = nullptr;
  std::span<const std::size_t> key_positions;  ///< original positions
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
  std::size_t total_steps = 0;
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

  /// The model-owned state the no-state overloads run against.
  kv::SequenceKvState& default_kv_state() noexcept { return state_; }
  const kv::SequenceKvState& default_kv_state() const noexcept {
    return state_;
  }

  /// Current cache length of one layer (default state).
  std::size_t cache_size(std::size_t layer) const;
  /// Sum of cache lengths across layers (default state).
  std::size_t total_cache_tokens() const;
  kv::KvCache& cache(std::size_t layer);
  const kv::KvCache& cache(std::size_t layer) const;

  /// Clears the default state's layer caches (start of a new sequence).
  void reset();

  /// Installs an attention observer (pass nullptr-equivalent {} to clear).
  void set_observer(AttentionObserver observer);

  /// Switches the position mode (Table 3 org-pos vs new-pos ablation).
  /// Takes effect for caches filled after the next reset()/prefill() —
  /// under RoPE the key-storage contract (pre-rotated vs raw, see
  /// model/attention.h) differs per mode, so a non-empty cache must not
  /// straddle a switch.
  void set_position_mode(PositionMode mode) { cfg_.position_mode = mode; }

  /// Prompt phase against the default state. Returns the LM logits of the
  /// last prompt position (those predicting the first generated token),
  /// shape [1, vocab]. `total_steps` is T in Algorithm 1.
  Tensor prefill(std::span<const Token> prompt, kv::EvictionPolicy& policy,
                 std::size_t total_steps);

  /// Prompt phase against a caller-owned sequence state (must be empty):
  /// prefill_continue from position 0.
  Tensor prefill(kv::SequenceKvState& state, std::span<const Token> prompt,
                 kv::EvictionPolicy& policy, std::size_t total_steps);

  /// Prompt-phase continuation: processes `tokens` (original positions
  /// first_pos..first_pos+n-1) against a state whose every layer already
  /// caches exactly `first_pos` rows — an adopted shared prefix, or the
  /// earlier chunk of a chunked prefill. Each row attends its causal
  /// prefix, so its arithmetic is identical to the corresponding row of
  /// one monolithic prefill over the full prompt (the prefix-cache parity
  /// contract) and to decoding that token alone. Returns the LM logits of
  /// the chunk's last row, shape [1, vocab].
  Tensor prefill_continue(kv::SequenceKvState& state,
                          std::span<const Token> tokens,
                          std::size_t first_pos, kv::EvictionPolicy& policy,
                          std::size_t total_steps);

  /// One decode step against the default state: feeds `token` at sequence
  /// position `position` (original coordinates), decode step `t` (1-based).
  /// Returns the LM logits predicting the next token.
  std::vector<float> decode(Token token, std::size_t position, std::size_t t,
                            std::size_t total_steps,
                            kv::EvictionPolicy& policy);

  /// One decode step against a caller-owned sequence state: a one-slot
  /// step_batch.
  std::vector<float> decode(kv::SequenceKvState& state, Token token,
                            std::size_t position, std::size_t t,
                            std::size_t total_steps,
                            kv::EvictionPolicy& policy);

  /// One decode step for each of N >= 1 independent sequences sharing
  /// these weights: per layer, one attention call over every slot's row,
  /// each against its own cache, then each slot's policy observing (and
  /// possibly compacting) only its own cache. Returns LM logits, shape
  /// [N, vocab], row per slot; each row is bit-identical to decoding that
  /// sequence alone.
  Tensor step_batch(std::span<const DecodeSlot> slots);

 private:
  /// One sequence's consecutive rows in a forward pass: a prompt chunk,
  /// or one decode slot's row.
  struct RowRun {
    std::span<const Token> tokens;
    std::span<const std::size_t> positions;  ///< original, one per token
    std::size_t decode_step = 0;             ///< t; 0 in a prompt chunk
    std::size_t total_steps = 0;
    kv::SequenceKvState* state = nullptr;
    kv::EvictionPolicy* policy = nullptr;
  };

  /// The layer loop behind prefill_continue and step_batch: embeds every
  /// run's tokens, then per layer runs decoder_attention over all rows,
  /// each run's policy over its own cache, and decoder_mlp. Returns LM
  /// logits, one row per run (of its last token), runs in order.
  Tensor forward(std::span<const RowRun> runs, Phase phase);
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
  kv::SequenceKvState state_;  ///< default sequence state
  AttentionObserver observer_;
};

}  // namespace kf::model
