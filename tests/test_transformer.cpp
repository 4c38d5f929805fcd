#include "model/transformer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kvcache/policies/full.h"
#include "kvcache/policies/streaming_llm.h"
#include "kvcache/policies/window.h"

namespace kf::model {
namespace {

ModelConfig tiny_config(PositionalKind pos = PositionalKind::kRoPE) {
  ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.positional = pos;
  cfg.max_seq_len = 128;
  return cfg;
}

std::vector<Token> make_prompt(std::size_t n) {
  std::vector<Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Token>((i * 7 + 5) % 64);
  }
  return p;
}

TEST(Transformer, PrefillShapes) {
  Transformer m(tiny_config());
  kv::FullAttentionPolicy policy;
  const auto prompt = make_prompt(10);
  const Tensor logits = m.prefill(prompt, policy, 4);
  EXPECT_EQ(logits.dim(0), 10u);
  EXPECT_EQ(logits.dim(1), 64u);
  EXPECT_EQ(m.cache_size(0), 10u);
  EXPECT_EQ(m.cache_size(1), 10u);
  EXPECT_EQ(m.total_cache_tokens(), 20u);
}

TEST(Transformer, RejectsEmptyPromptAndDirtyCache) {
  Transformer m(tiny_config());
  kv::FullAttentionPolicy policy;
  EXPECT_THROW(m.prefill({}, policy, 1), std::invalid_argument);
  const auto prompt = make_prompt(4);
  m.prefill(prompt, policy, 1);
  EXPECT_THROW(m.prefill(prompt, policy, 1), std::logic_error);
  m.reset();
  EXPECT_NO_THROW(m.prefill(prompt, policy, 1));
}

TEST(Transformer, RejectsOutOfVocabToken) {
  Transformer m(tiny_config());
  kv::FullAttentionPolicy policy;
  const std::vector<Token> bad{1, 2, 64};
  EXPECT_THROW(m.prefill(bad, policy, 1), std::out_of_range);
  const std::vector<Token> neg{1, -1};
  m.reset();
  EXPECT_THROW(m.prefill(neg, policy, 1), std::out_of_range);
}

TEST(Transformer, DeterministicAcrossInstances) {
  const ModelConfig cfg = tiny_config();
  Transformer a(cfg);
  Transformer b(cfg);
  kv::FullAttentionPolicy policy;
  const auto prompt = make_prompt(8);
  const Tensor la = a.prefill(prompt, policy, 2);
  const Tensor lb = b.prefill(prompt, policy, 2);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la.span()[i], lb.span()[i]);
  }
}

class PrefillDecodeEquivalence
    : public ::testing::TestWithParam<PositionalKind> {};

TEST_P(PrefillDecodeEquivalence, StepwiseDecodeMatchesPrefill) {
  // Processing the prompt in one prefill call or token-by-token must give
  // the same final logits under full attention.
  const ModelConfig cfg = tiny_config(GetParam());
  const auto prompt = make_prompt(9);

  Transformer batch(cfg);
  kv::FullAttentionPolicy p1;
  const Tensor full = batch.prefill(prompt, p1, 1);
  const auto last = full.row(prompt.size() - 1);

  Transformer step(cfg);
  kv::FullAttentionPolicy p2;
  const std::vector<Token> first{prompt[0]};
  Tensor l = step.prefill(first, p2, 1);
  std::vector<float> row(l.row(0).begin(), l.row(0).end());
  for (std::size_t i = 1; i < prompt.size(); ++i) {
    row = step.decode(prompt[i], i, i, prompt.size(), p2);
  }
  ASSERT_EQ(row.size(), last.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_NEAR(row[i], last[i], 2e-3F) << "vocab " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PrefillDecodeEquivalence,
                         ::testing::Values(PositionalKind::kRoPE,
                                           PositionalKind::kALiBi,
                                           PositionalKind::kLearned),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Transformer, ObserverSeesEveryLayer) {
  Transformer m(tiny_config());
  kv::FullAttentionPolicy policy;
  std::vector<std::size_t> layers_seen;
  m.set_observer([&](const AttentionObservation& obs) {
    layers_seen.push_back(obs.layer);
    EXPECT_TRUE(obs.is_prompt);
    EXPECT_NE(obs.attn, nullptr);
    EXPECT_EQ(obs.key_positions.size(), 6u);
  });
  m.prefill(make_prompt(6), policy, 1);
  EXPECT_EQ(layers_seen, (std::vector<std::size_t>{0, 1}));
}

TEST(Transformer, PolicyEvictsDuringPrefill) {
  Transformer m(tiny_config());
  kv::WindowPolicy policy;
  policy.set_budget(kv::make_budget(16, 0.5));
  const auto prompt = make_prompt(16);
  m.prefill(prompt, policy, 4);
  EXPECT_EQ(m.cache_size(0), 8u);
  EXPECT_EQ(m.cache_size(1), 8u);
}

TEST(Transformer, DecodeKeepsBudgetSteady) {
  Transformer m(tiny_config());
  kv::WindowPolicy policy;
  policy.set_budget(kv::make_budget(16, 0.5));
  const auto prompt = make_prompt(16);
  m.prefill(prompt, policy, 4);
  for (std::size_t t = 1; t <= 4; ++t) {
    m.decode(static_cast<Token>(t), 15 + t, t, 4, policy);
    EXPECT_EQ(m.cache_size(0), 8u) << "step " << t;
  }
}

TEST(Transformer, LogitsAreFinite) {
  Transformer m(tiny_config(PositionalKind::kALiBi));
  kv::FullAttentionPolicy policy;
  const Tensor logits = m.prefill(make_prompt(12), policy, 1);
  for (const float v : logits.span()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Transformer, DecodeMatchesOneTokenPromptChunks) {
  // Full-stack parity of the two kernels: the same token stream fed through
  // decode() (the decode kernel) and through one-token prefill_continue
  // chunks (the general kernel), every layer, under full attention so both
  // caches keep identical rows. LM logits must agree within float rounding
  // at every step.
  for (const auto kind : {PositionalKind::kRoPE, PositionalKind::kALiBi,
                          PositionalKind::kLearned}) {
    const ModelConfig cfg = tiny_config(kind);
    const auto prompt = make_prompt(16);
    Transformer m(cfg);
    kv::SequenceKvState decoded = m.make_kv_state();
    kv::SequenceKvState chunked = m.make_kv_state();
    kv::FullAttentionPolicy p_decoded;
    kv::FullAttentionPolicy p_chunked;
    m.prefill(decoded, prompt, p_decoded, 4);
    m.prefill(chunked, prompt, p_chunked, 4);
    for (std::size_t t = 1; t <= 4; ++t) {
      const Token tok = static_cast<Token>(t);
      const std::size_t pos = prompt.size() + t - 1;
      const std::vector<float> a = m.decode(decoded, tok, pos, t, 4, p_decoded);
      const Tensor b =
          m.prefill_continue(chunked, {&tok, 1}, pos, p_chunked, 4);
      ASSERT_EQ(a.size(), b.dim(1));
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b.row(0)[i], 1e-4F)
            << to_string(kind) << " step " << t << " logit " << i;
      }
    }
  }
}

TEST(Transformer, EveryEntryPointRejectsMismatchedHeadSplit) {
  // Same layer count and row width (2 x 8 == 4 x 4) as the model, different
  // head split: every entry point must refuse the state before any kernel
  // reads it as a 4-head cache.
  ModelConfig cfg = tiny_config();
  cfg.n_heads = 4;
  Transformer m(cfg);
  kv::SequenceKvState state(/*n_layers=*/2, /*n_heads=*/2, /*d_head=*/8);
  kv::FullAttentionPolicy policy;
  const auto prompt = make_prompt(4);
  EXPECT_THROW(m.prefill(state, prompt, policy, 1), std::invalid_argument);
  EXPECT_THROW(m.prefill_continue(state, prompt, 0, policy, 1),
               std::invalid_argument);
  EXPECT_THROW(m.decode(state, 1, 0, 1, 1, policy), std::invalid_argument);
  const DecodeSlot slot{1, 0, 1, 1, &state, &policy};
  EXPECT_THROW(m.step_batch({&slot, 1}), std::invalid_argument);
}

TEST(Transformer, PositionModeSwitchAffectsDecodeAfterEviction) {
  // Note: a *window* policy keeps a contiguous tail, whose relative
  // distances are identical under both position modes (RoPE depends only
  // on relative offsets) — so this test needs a policy with a scattered
  // keep set. StreamingLLM keeps sinks + tail: the sink-to-query distance
  // shrinks under kNew.
  const ModelConfig cfg = tiny_config(PositionalKind::kRoPE);
  const auto prompt = make_prompt(16);
  const auto run = [&](PositionMode mode) {
    Transformer m(cfg);
    m.set_position_mode(mode);
    kv::StreamingLlmPolicy policy;
    policy.set_budget(kv::make_budget(16, 0.4));
    m.prefill(prompt, policy, 2);
    return m.decode(3, 16, 1, 2, policy);
  };
  const auto a = run(PositionMode::kOriginal);
  const auto b = run(PositionMode::kNew);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = std::abs(a[i] - b[i]) > 1e-5F;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace kf::model
