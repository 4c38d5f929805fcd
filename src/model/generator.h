// Autoregressive generation loop wiring the transformer, a KV-cache
// eviction policy, and the paper's budget semantics together — the main
// user-facing entry point for text generation experiments.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kvcache/kv_state.h"
#include "kvcache/policy.h"
#include "model/transformer.h"

namespace kf::model {

struct GenerationConfig {
  std::size_t max_new_tokens = 64;
  /// KV-cache budget as a fraction of prompt length; >= 1.0 disables
  /// eviction (full attention). The paper sweeps 0.1 .. 0.9.
  double cache_ratio = 1.0;
  /// Recent-window fraction of the budget (paper's best range: 0.2-0.3).
  double recent_ratio = 0.3;
  /// Penalty subtracted from the logits of recently generated tokens;
  /// 0 disables. Keeps the synthetic models from degenerate single-token
  /// loops, applied identically across policies.
  float repetition_penalty = 2.0F;
  /// How many trailing generated tokens the penalty covers; 0 = all.
  std::size_t repetition_window = 0;
  /// Token ids never emitted (e.g. specials such as <bos>/<sep>).
  std::vector<Token> banned_tokens;
  /// Stop token; -1 disables early stopping.
  Token eos_token = -1;
};

/// Decode-phase throughput rule shared by GenerationResult and
/// serve::Response: tokens beyond the prefill-produced first, per decode
/// second; 0 when no decode steps ran.
inline double decode_throughput(std::size_t generated_tokens,
                                double decode_seconds) {
  return generated_tokens > 1 && decode_seconds > 0.0
             ? static_cast<double>(generated_tokens - 1) / decode_seconds
             : 0.0;
}

struct GenerationResult {
  std::vector<Token> tokens;  ///< generated tokens (prompt excluded)
  std::size_t prompt_len = 0;
  kv::CacheBudget budget;
  /// The sequence's KV state as generation left it (its own private
  /// pool): per-layer sizes, kept positions and scores for budget and
  /// retention checks.
  kv::SequenceKvState state;
  /// Peak cache length observed across layers (== prompt during prefill
  /// attention, then budget k + 1 transiently at each decode step).
  std::size_t peak_cache_tokens = 0;
  /// Prompt-phase wall time (prefill attention + first-token selection).
  double prefill_seconds = 0.0;
  /// Decode-phase wall time (every step after the first token). Serving
  /// throughput is quoted on this phase alone so a long prompt does not
  /// skew tokens/s.
  double decode_seconds = 0.0;

  double wall_seconds() const { return prefill_seconds + decode_seconds; }
  /// See decode_throughput().
  double decode_tokens_per_s() const {
    return decode_throughput(tokens.size(), decode_seconds);
  }
};

/// Why `prompt` with `max_new_tokens` to generate cannot run on a model of
/// `cfg`, or nullptr when it can: an empty prompt, a token outside the
/// vocabulary, or learned positions past max_seq_len (the last generated
/// token is never fed back, so it needs no position). The message has
/// static storage. serve::Engine rejects such a request; generate() throws.
const char* prompt_error(const ModelConfig& cfg, std::span<const Token> prompt,
                         std::size_t max_new_tokens);

/// Greedy generation under `policy`, the plain single-sequence loop: builds
/// a fresh state with make_kv_state(), derives the budget from
/// `cfg.cache_ratio`, begins the policy's sequence with T =
/// max_new_tokens, prefills, then decodes until eos or max_new_tokens, and
/// returns the state in the result. Deterministic; a one-request
/// serve::Engine run gives the same tokens. Throws std::invalid_argument
/// with prompt_error()'s message when the request cannot run.
GenerationResult generate(const Transformer& model,
                          std::span<const Token> prompt,
                          kv::EvictionPolicy& policy,
                          const GenerationConfig& cfg);

/// Argmax with an optional repetition penalty over `recent` token ids and
/// a hard ban list.
Token select_greedy(std::span<const float> logits,
                    std::span<const Token> recent, float penalty,
                    std::span<const Token> banned = {});

/// The sampling rule of generate() and serve::Engine, written once:
/// select_greedy with `cfg`'s penalty over the trailing
/// `cfg.repetition_window` tokens of `committed` (all of them when 0) and
/// `cfg`'s ban list.
Token select_next(std::span<const float> logits,
                  std::span<const Token> committed,
                  const GenerationConfig& cfg);

}  // namespace kf::model
