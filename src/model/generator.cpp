#include "model/generator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/timing.h"

namespace kf::model {

Token select_greedy(std::span<const float> logits,
                    std::span<const Token> recent, float penalty,
                    std::span<const Token> banned) {
  std::vector<float> adjusted;
  std::span<const float> view = logits;
  if ((penalty > 0.0F && !recent.empty()) || !banned.empty()) {
    adjusted.assign(logits.begin(), logits.end());
    for (const Token t : recent) {
      if (t >= 0 && static_cast<std::size_t>(t) < adjusted.size()) {
        adjusted[static_cast<std::size_t>(t)] -= penalty;
      }
    }
    for (const Token t : banned) {
      if (t >= 0 && static_cast<std::size_t>(t) < adjusted.size()) {
        adjusted[static_cast<std::size_t>(t)] =
            -std::numeric_limits<float>::infinity();
      }
    }
    view = adjusted;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < view.size(); ++i) {
    if (view[i] > view[best]) best = i;
  }
  return static_cast<Token>(best);
}

Token select_next(std::span<const float> logits,
                  std::span<const Token> committed,
                  const GenerationConfig& cfg) {
  const std::size_t n = committed.size();
  const std::size_t w =
      cfg.repetition_window == 0 ? n : std::min(n, cfg.repetition_window);
  return select_greedy(logits, committed.last(w), cfg.repetition_penalty,
                       cfg.banned_tokens);
}

const char* prompt_error(const ModelConfig& cfg, std::span<const Token> prompt,
                         std::size_t max_new_tokens) {
  if (prompt.empty()) return "the prompt is empty";
  const bool outside_vocabulary =
      std::any_of(prompt.begin(), prompt.end(), [&](Token t) {
        return t < 0 || static_cast<std::size_t>(t) >= cfg.vocab_size;
      });
  if (outside_vocabulary) return "prompt token id outside the model vocabulary";
  // The largest embedded position: the last prompt row, or the input of
  // the last decode step.
  const std::size_t last_position =
      prompt.size() - 1 + (max_new_tokens > 1 ? max_new_tokens - 1 : 0);
  if (cfg.positional == PositionalKind::kLearned &&
      last_position >= cfg.max_seq_len) {
    return "learned positions would run past max_seq_len";
  }
  return nullptr;
}

GenerationResult generate(const Transformer& model,
                          std::span<const Token> prompt,
                          kv::EvictionPolicy& policy,
                          const GenerationConfig& cfg) {
  if (const char* error =
          prompt_error(model.config(), prompt, cfg.max_new_tokens)) {
    throw std::invalid_argument(error);
  }
  GenerationResult result;
  result.prompt_len = prompt.size();
  result.budget =
      kv::make_budget(prompt.size(), cfg.cache_ratio, cfg.recent_ratio);
  policy.set_budget(result.budget);
  policy.begin_sequence({prompt.size(), cfg.max_new_tokens});
  result.state = model.make_kv_state();
  kv::SequenceKvState& state = result.state;

  // The prompt phase includes the first token's selection.
  double t0 = now_seconds();
  const Tensor prompt_logits = model.prefill(state, prompt, 0, policy);
  result.peak_cache_tokens = prompt.size();
  Token next = select_next(prompt_logits.row(0), result.tokens, cfg);
  result.prefill_seconds = now_seconds() - t0;

  // Each step commits `next`; the finishing token is never fed back.
  for (std::size_t t = 1; t <= cfg.max_new_tokens; ++t) {
    result.tokens.push_back(next);
    if (cfg.eos_token >= 0 && next == cfg.eos_token) break;
    if (result.tokens.size() >= cfg.max_new_tokens) break;
    t0 = now_seconds();
    const std::vector<float> logits =
        model.decode(state, next, prompt.size() + t - 1, t, policy);
    result.peak_cache_tokens =
        std::max(result.peak_cache_tokens, state.max_layer_tokens());
    next = select_next(logits, result.tokens, cfg);
    result.decode_seconds += now_seconds() - t0;
  }
  return result;
}

}  // namespace kf::model
