#include "model/transformer.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "model/layer.h"
#include "obs/trace.h"

namespace kf::model {

Transformer::Transformer(ModelConfig cfg)
    : cfg_(std::move(cfg)), weights_(build_weights(cfg_)) {}

kv::SequenceKvState Transformer::make_kv_state() const {
  return kv::SequenceKvState(cfg_.n_layers, cfg_.n_heads, cfg_.d_head());
}

void Transformer::set_observer(AttentionObserver observer) {
  observer_ = std::move(observer);
}

void Transformer::embed_row(Token token, std::size_t position,
                            std::span<float> dst) const {
  if (token < 0 || static_cast<std::size_t>(token) >= cfg_.vocab_size) {
    throw std::out_of_range("token id outside vocabulary");
  }
  const auto src = weights_.embedding.row(static_cast<std::size_t>(token));
  std::copy(src.begin(), src.end(), dst.begin());
  if (cfg_.positional == PositionalKind::kLearned) {
    if (position >= weights_.pos_embedding.dim(0)) {
      throw std::out_of_range("learned position past the position table");
    }
    add_inplace(dst, weights_.pos_embedding.row(position));
  }
}

Tensor Transformer::lm_logits(const Tensor& x,
                              std::span<const RowRun> runs) const {
  const std::size_t d = cfg_.d_model;
  Tensor normed({runs.size(), d});
  std::size_t last = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    last += runs[r].tokens.size();
    layer_norm(x.row(last - 1), weights_.final_gamma.span(),
               weights_.final_beta.span(), normed.row(r));
  }
  Tensor logits({runs.size(), cfg_.vocab_size});
  matmul(normed.span(), weights_.lm_head.span(), logits.span(), runs.size(),
         d, cfg_.vocab_size);
  return logits;
}

Tensor Transformer::prefill(kv::SequenceKvState& state,
                            std::span<const Token> tokens,
                            std::size_t first_pos,
                            kv::EvictionPolicy& policy) const {
  if (tokens.empty()) {
    throw std::invalid_argument("prefill requires a non-empty prompt");
  }
  if (!state.matches(cfg_.n_layers, cfg_.n_heads, cfg_.d_head())) {
    throw std::invalid_argument(
        "sequence state geometry does not match the model");
  }
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    if (state.layer(l).size() != first_pos) {
      throw std::logic_error(
          "prefill: every layer cache must hold exactly first_pos rows "
          "(clear() the state before a fresh prompt)");
    }
  }
  std::vector<std::size_t> positions(tokens.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = first_pos + i;
  }
  const RowRun run{tokens, positions, /*decode_step=*/0, &state, &policy};
  return forward({&run, 1}, Phase::kPrompt);
}

std::vector<float> Transformer::decode(kv::SequenceKvState& state, Token token,
                                       std::size_t position, std::size_t t,
                                       kv::EvictionPolicy& policy) const {
  return decode(state, {&token, 1}, position, t, policy);
}

std::vector<float> Transformer::decode(kv::SequenceKvState& state,
                                       std::span<const Token> tokens,
                                       std::size_t position, std::size_t t,
                                       kv::EvictionPolicy& policy) const {
  if (tokens.empty()) {
    throw std::invalid_argument("decode requires at least one token");
  }
  if (!state.matches(cfg_.n_layers, cfg_.n_heads, cfg_.d_head())) {
    throw std::invalid_argument(
        "sequence state geometry does not match the model");
  }
  std::vector<std::size_t> positions(tokens.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = position + i;
  }
  // One forward call per token when layer-by-layer order would change the
  // policy's decisions, or an observer expects one row per observation.
  const std::size_t rows =
      observer_ || !policy.layers_independent() ? 1 : tokens.size();
  Tensor logits;
  for (std::size_t i = 0; i < tokens.size(); i += rows) {
    const RowRun run{tokens.subspan(i, rows), {&positions[i], rows}, t + i,
                     &state, &policy};
    logits = forward({&run, 1}, Phase::kDecode);
  }
  const auto row = logits.row(0);
  return std::vector<float>(row.begin(), row.end());
}

Tensor Transformer::step_batch(std::span<const DecodeSlot> slots) const {
  if (slots.empty()) return Tensor({0, cfg_.vocab_size});
  for (const auto& s : slots) {
    if (s.state == nullptr || s.policy == nullptr) {
      throw std::invalid_argument("step_batch slot missing state or policy");
    }
    if (!s.state->matches(cfg_.n_layers, cfg_.n_heads, cfg_.d_head())) {
      throw std::invalid_argument(
          "sequence state geometry does not match the model");
    }
  }
#ifndef NDEBUG
  // Distinctness holds by construction in the Engine, which builds each
  // sequence's own state and policy; re-checking every decode step costs
  // two hash sets per step, so the hot path only pays for it in
  // debug/sanitizer builds.
  {
    std::unordered_set<const void*> states, policies;
    for (const auto& s : slots) {
      if (!states.insert(s.state).second || !policies.insert(s.policy).second) {
        throw std::invalid_argument(
            "step_batch slots must use distinct states and policies");
      }
    }
  }
#endif
  std::vector<RowRun> runs(slots.size());
  for (std::size_t b = 0; b < slots.size(); ++b) {
    const DecodeSlot& s = slots[b];
    runs[b] = {{&s.token, 1}, {&s.position, 1}, s.t, s.state, s.policy};
  }
  return forward(runs, Phase::kDecode);
}

Tensor Transformer::forward(std::span<const RowRun> runs, Phase phase) const {
  const bool prompt = phase == Phase::kPrompt;
  KF_TRACE_SCOPE(prompt ? "prefill_chunk" : "step_batch", "model");
  std::size_t rows = 0;
  for (const RowRun& run : runs) rows += run.tokens.size();
  // Embed each token at its own position, straight into its row.
  Tensor x({rows, cfg_.d_model});
  std::size_t row = 0;
  for (const RowRun& run : runs) {
    for (std::size_t i = 0; i < run.tokens.size(); ++i) {
      embed_row(run.tokens[i], run.positions[i], x.row(row++));
    }
  }

  std::vector<AttentionRun> aruns(runs.size());
  // Only an observer reads the logit and probability tensors.
  const Internals internals = observer_ ? Internals::kKeep : Internals::kDrop;
  for (std::size_t layer = 0; layer < cfg_.n_layers; ++layer) {
    const LayerWeights& w = weights_.layers[layer];
    for (std::size_t r = 0; r < runs.size(); ++r) {
      aruns[r] = {runs[r].positions, &runs[r].state->layer(layer),
                  runs[r].policy, layer, runs[r].decode_step};
    }
    const std::vector<AttentionResult> results =
        decoder_attention(cfg_, w, weights_.rope, x, aruns, phase, internals);

    // The attend has already let each run's policy evict; the kept results
    // carry the key positions the rows ran against.
    if (observer_) {
      for (std::size_t r = 0; r < runs.size(); ++r) {
        AttentionObservation obs;
        obs.layer = layer;
        obs.attn = &results[r];
        obs.key_positions = results[r].key_positions;
        obs.is_prompt = prompt;
        obs.decode_step = runs[r].decode_step;
        obs.batch_slot = r;
        observer_(obs);
      }
    }

    KF_TRACE_SCOPE(prompt ? "prompt.mlp" : "mlp", "model");
    decoder_mlp(cfg_, w, x, aruns);
  }
  KF_TRACE_SCOPE(prompt ? "prompt.lm_head" : "lm_head", "model");
  return lm_logits(x, runs);
}

}  // namespace kf::model
