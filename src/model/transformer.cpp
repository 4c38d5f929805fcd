#include "model/transformer.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "core/threadpool.h"
#include "model/layer.h"
#include "obs/trace.h"

namespace kf::model {

Transformer::Transformer(ModelConfig cfg)
    : cfg_(std::move(cfg)),
      weights_(build_weights(cfg_)),
      state_(cfg_.n_layers, cfg_.n_heads, cfg_.d_head(),
             /*capacity_hint=*/256) {}

kv::SequenceKvState Transformer::make_kv_state(
    std::size_t capacity_hint) const {
  return kv::SequenceKvState(cfg_.n_layers, cfg_.n_heads, cfg_.d_head(),
                             capacity_hint);
}

std::size_t Transformer::cache_size(std::size_t layer) const {
  return state_.layer(layer).size();
}

std::size_t Transformer::total_cache_tokens() const {
  return state_.total_tokens();
}

kv::KvCache& Transformer::cache(std::size_t layer) {
  return state_.layer(layer);
}

const kv::KvCache& Transformer::cache(std::size_t layer) const {
  return state_.layer(layer);
}

void Transformer::reset() { state_.clear(); }

void Transformer::set_observer(AttentionObserver observer) {
  observer_ = std::move(observer);
}

Tensor Transformer::embed(std::span<const Token> tokens,
                          std::size_t first_pos) const {
  Tensor x({tokens.size(), cfg_.d_model});
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    embed_row(tokens[i], first_pos + i, x.row(i));
  }
  return x;
}

void Transformer::embed_row(Token token, std::size_t position,
                            std::span<float> dst) const {
  if (token < 0 || static_cast<std::size_t>(token) >= cfg_.vocab_size) {
    throw std::out_of_range("token id outside vocabulary");
  }
  const auto src = weights_.embedding.row(static_cast<std::size_t>(token));
  std::copy(src.begin(), src.end(), dst.begin());
  if (cfg_.positional == PositionalKind::kLearned &&
      position < weights_.pos_embedding.dim(0)) {
    add_inplace(dst, weights_.pos_embedding.row(position));
  }
}

Tensor Transformer::lm_logits(const Tensor& x) const {
  const std::size_t n_q = x.dim(0);
  Tensor logits({n_q, cfg_.vocab_size});
  Tensor normed({n_q, cfg_.d_model});
  // Rows are independent; at decode batch sizes the per-row matvec is
  // below the kernel-internal parallel threshold, so parallelize across
  // rows here (identical per-row numerics either way).
  ThreadPool::global().parallel_for(
      n_q,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          layer_norm(x.row(i), weights_.final_gamma.span(),
                     weights_.final_beta.span(), normed.row(i));
          matvec(weights_.lm_head.span(), normed.row(i), logits.row(i),
                 cfg_.vocab_size, cfg_.d_model);
        }
      },
      /*grain=*/1);
  return logits;
}

Tensor Transformer::prefill(std::span<const Token> prompt,
                            kv::EvictionPolicy& policy,
                            std::size_t total_steps) {
  return prefill(state_, prompt, policy, total_steps);
}

Tensor Transformer::prefill(kv::SequenceKvState& state,
                            std::span<const Token> prompt,
                            kv::EvictionPolicy& policy,
                            std::size_t total_steps) {
  return prefill_continue(state, prompt, /*first_pos=*/0, policy,
                          total_steps);
}

Tensor Transformer::prefill_continue(kv::SequenceKvState& state,
                                     std::span<const Token> tokens,
                                     std::size_t first_pos,
                                     kv::EvictionPolicy& policy,
                                     std::size_t total_steps) {
  if (tokens.empty()) {
    throw std::invalid_argument("prefill requires a non-empty prompt");
  }
  KF_TRACE_SCOPE("prefill_chunk", "model");
  if (!state.matches(cfg_.n_layers, cfg_.n_heads, cfg_.d_head())) {
    throw std::invalid_argument(
        "sequence state geometry does not match the model");
  }
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    if (state.layer(l).size() != first_pos) {
      throw std::logic_error(
          "prefill: every layer cache must hold exactly first_pos rows "
          "(reset() before a fresh prompt)");
    }
  }
  const std::size_t n_q = tokens.size();
  std::vector<std::size_t> positions(n_q);
  for (std::size_t i = 0; i < n_q; ++i) positions[i] = first_pos + i;
  Tensor x = embed(tokens, first_pos);

  for (std::size_t layer = 0; layer < cfg_.n_layers; ++layer) {
    kv::KvCache& cache = state.layer(layer);
    AttentionResult attn =
        decoder_attention(cfg_, weights_.layers[layer], x, positions, cache);

    if (observer_) {
      AttentionObservation obs;
      obs.layer = layer;
      obs.attn = &attn;
      obs.key_positions = cache.original_positions();
      obs.is_prompt = true;
      observer_(obs);
    }

    kv::PolicyContext ctx;
    ctx.layer = layer;
    ctx.n_heads = cfg_.n_heads;
    ctx.n_queries = n_q;
    ctx.key_len = attn.key_len;
    ctx.logits = attn.logits.span();
    ctx.probs = attn.probs.span();
    ctx.is_prompt = true;
    ctx.total_steps = total_steps;
    ctx.cache = &cache;
    {
      KF_TRACE_SCOPE("prompt.observe", "model");
      policy.observe(ctx);
    }

    KF_TRACE_SCOPE("prompt.mlp", "model");
    decoder_mlp(cfg_, weights_.layers[layer], x);
  }
  KF_TRACE_SCOPE("prompt.lm_head", "model");
  return lm_logits(x);
}

std::vector<float> Transformer::decode(Token token, std::size_t position,
                                       std::size_t t,
                                       std::size_t total_steps,
                                       kv::EvictionPolicy& policy) {
  return decode(state_, token, position, t, total_steps, policy);
}

std::vector<float> Transformer::decode(kv::SequenceKvState& state,
                                       Token token, std::size_t position,
                                       std::size_t t,
                                       std::size_t total_steps,
                                       kv::EvictionPolicy& policy) {
  const DecodeSlot slot{token, position, t, total_steps, &state, &policy};
  const Tensor logits = step_batch({&slot, 1});
  const auto row = logits.row(0);
  return std::vector<float>(row.begin(), row.end());
}

Tensor Transformer::step_batch(std::span<const DecodeSlot> slots) {
  const std::size_t b_count = slots.size();
  if (b_count == 0) return Tensor({0, cfg_.vocab_size});
  KF_TRACE_SCOPE("step_batch", "model");
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
  // Distinctness is the Engine's contract (enforced once per run there);
  // re-checking every decode step costs two hash sets per step, so the
  // hot path only pays for it in debug/sanitizer builds.
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

  // Embed each sequence's token at its own position, straight into its row.
  Tensor x({b_count, cfg_.d_model});
  for (std::size_t b = 0; b < b_count; ++b) {
    embed_row(slots[b].token, slots[b].position, x.row(b));
  }

  std::vector<DecodeBatchSlot> aslots(b_count);
  for (std::size_t layer = 0; layer < cfg_.n_layers; ++layer) {
    for (std::size_t b = 0; b < b_count; ++b) {
      aslots[b] = {slots[b].position, &slots[b].state->layer(layer)};
    }
    const std::vector<AttentionResult> results =
        decoder_attention_batch(cfg_, weights_.layers[layer], x, aslots);

    // Observer fires before policies may compact (key_positions must match
    // the cache the attention actually ran against).
    if (observer_) {
      for (std::size_t b = 0; b < b_count; ++b) {
        AttentionObservation obs;
        obs.layer = layer;
        obs.attn = &results[b];
        obs.key_positions = aslots[b].cache->original_positions();
        obs.is_prompt = false;
        obs.decode_step = slots[b].t;
        obs.batch_slot = b;
        observer_(obs);
      }
    }

    // Per-sequence policy observation (score accumulation + eviction),
    // parallel across sequences: each slot's policy touches only its own
    // cache and its own score state.
    {
      KF_TRACE_SCOPE("policy.observe", "model");
      ThreadPool::global().parallel_for(
          b_count,
          [&](std::size_t b0, std::size_t b1) {
            for (std::size_t b = b0; b < b1; ++b) {
              kv::PolicyContext ctx;
              ctx.layer = layer;
              ctx.n_heads = cfg_.n_heads;
              ctx.n_queries = 1;
              ctx.key_len = results[b].key_len;
              ctx.logits = results[b].logits.span();
              ctx.probs = results[b].probs.span();
              ctx.is_prompt = false;
              ctx.decode_step = slots[b].t;
              ctx.total_steps = slots[b].total_steps;
              ctx.cache = aslots[b].cache;
              slots[b].policy->observe(ctx);
            }
          },
          /*grain=*/1);
    }

    KF_TRACE_SCOPE("mlp", "model");
    decoder_mlp_rows(cfg_, weights_.layers[layer], x);
  }
  KF_TRACE_SCOPE("lm_head", "model");
  return lm_logits(x);
}

}  // namespace kf::model
