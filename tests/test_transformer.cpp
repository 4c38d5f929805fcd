#include "model/transformer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "kvcache/policies/full.h"
#include "kvcache/policies/streaming_llm.h"
#include "kvcache/policies/window.h"
#include "kvcache/policy_factory.h"

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
  // Prefill caches every prompt row but returns only the last row's logits,
  // the ones predicting the first generated token.
  Transformer m(tiny_config());
  kv::SequenceKvState state = m.make_kv_state();
  kv::FullAttentionPolicy policy;
  const auto prompt = make_prompt(10);
  const Tensor logits = m.prefill(state, prompt, 0, policy);
  EXPECT_EQ(logits.dim(0), 1u);
  EXPECT_EQ(logits.dim(1), 64u);
  EXPECT_EQ(state.layer_size(0), 10u);
  EXPECT_EQ(state.layer_size(1), 10u);
  EXPECT_EQ(state.layer_size(0) + state.layer_size(1), 20u);
}

TEST(Transformer, RejectsEmptyPromptAndDirtyCache) {
  Transformer m(tiny_config());
  kv::SequenceKvState state = m.make_kv_state();
  kv::FullAttentionPolicy policy;
  EXPECT_THROW(m.prefill(state, {}, 0, policy), std::invalid_argument);
  const auto prompt = make_prompt(4);
  m.prefill(state, prompt, 0, policy);
  EXPECT_THROW(m.prefill(state, prompt, 0, policy), std::logic_error);
  state.clear();
  EXPECT_NO_THROW(m.prefill(state, prompt, 0, policy));
}

TEST(Transformer, RejectsOutOfVocabToken) {
  Transformer m(tiny_config());
  kv::SequenceKvState state = m.make_kv_state();
  kv::FullAttentionPolicy policy;
  const std::vector<Token> bad{1, 2, 64};
  EXPECT_THROW(m.prefill(state, bad, 0, policy), std::out_of_range);
  const std::vector<Token> neg{1, -1};
  state.clear();
  EXPECT_THROW(m.prefill(state, neg, 0, policy), std::out_of_range);
}

TEST(Transformer, RejectsLearnedPositionPastTable) {
  // A learned-position model has one table row per position below
  // max_seq_len: position 15 is the last it can embed, 16 the first it
  // cannot, whether a prompt row or a decode step feeds it.
  ModelConfig cfg = tiny_config(PositionalKind::kLearned);
  cfg.max_seq_len = 16;
  Transformer m(cfg);
  kv::SequenceKvState state = m.make_kv_state();
  kv::FullAttentionPolicy policy;
  EXPECT_NO_THROW(m.prefill(state, make_prompt(16), 0, policy));
  state.clear();
  EXPECT_THROW(m.prefill(state, make_prompt(17), 0, policy),
               std::out_of_range);
  state.clear();
  m.prefill(state, make_prompt(15), 0, policy);
  EXPECT_NO_THROW(m.decode(state, 1, 15, 1, policy));
  EXPECT_THROW(m.decode(state, 1, 16, 2, policy), std::out_of_range);
}

TEST(Transformer, DeterministicAcrossInstances) {
  const ModelConfig cfg = tiny_config();
  Transformer a(cfg);
  Transformer b(cfg);
  kv::FullAttentionPolicy policy;
  const auto prompt = make_prompt(8);
  kv::SequenceKvState sa = a.make_kv_state();
  kv::SequenceKvState sb = b.make_kv_state();
  const Tensor la = a.prefill(sa, prompt, 0, policy);
  const Tensor lb = b.prefill(sb, prompt, 0, policy);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la.span()[i], lb.span()[i]);
  }
}

class PrefillDecodeEquivalence
    : public ::testing::TestWithParam<PositionalKind> {};

TEST_P(PrefillDecodeEquivalence, StepwiseDecodeMatchesPrefill) {
  // Processing the prompt in one prefill call or token-by-token must give
  // the same final logits under full attention, bit for bit: a prompt row
  // attends its causal prefix through the same attend a decode step runs.
  const ModelConfig cfg = tiny_config(GetParam());
  const auto prompt = make_prompt(9);

  Transformer batch(cfg);
  kv::SequenceKvState batch_state = batch.make_kv_state();
  kv::FullAttentionPolicy p1;
  const Tensor full = batch.prefill(batch_state, prompt, 0, p1);
  const auto last = full.row(0);  // the last prompt row's logits

  Transformer step(cfg);
  kv::SequenceKvState step_state = step.make_kv_state();
  kv::FullAttentionPolicy p2;
  const std::vector<Token> first{prompt[0]};
  Tensor l = step.prefill(step_state, first, 0, p2);
  std::vector<float> row(l.row(0).begin(), l.row(0).end());
  for (std::size_t i = 1; i < prompt.size(); ++i) {
    row = step.decode(step_state, prompt[i], i, i, p2);
  }
  ASSERT_EQ(row.size(), last.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i], last[i]) << "vocab " << i;
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
  kv::SequenceKvState state = m.make_kv_state();
  m.prefill(state, make_prompt(6), 0, policy);
  EXPECT_EQ(layers_seen, (std::vector<std::size_t>{0, 1}));
}

TEST(Transformer, PolicyEvictsDuringPrefill) {
  Transformer m(tiny_config());
  kv::WindowPolicy policy;
  policy.set_budget(kv::make_budget(16, 0.5));
  const auto prompt = make_prompt(16);
  kv::SequenceKvState state = m.make_kv_state();
  m.prefill(state, prompt, 0, policy);
  EXPECT_EQ(state.layer_size(0), 8u);
  EXPECT_EQ(state.layer_size(1), 8u);
}

TEST(Transformer, DecodeKeepsBudgetSteady) {
  Transformer m(tiny_config());
  kv::WindowPolicy policy;
  policy.set_budget(kv::make_budget(16, 0.5));
  const auto prompt = make_prompt(16);
  kv::SequenceKvState state = m.make_kv_state();
  m.prefill(state, prompt, 0, policy);
  for (std::size_t t = 1; t <= 4; ++t) {
    m.decode(state, static_cast<Token>(t), 15 + t, t, policy);
    EXPECT_EQ(state.layer_size(0), 8u) << "step " << t;
  }
}

TEST(Transformer, LogitsAreFinite) {
  Transformer m(tiny_config(PositionalKind::kALiBi));
  kv::FullAttentionPolicy policy;
  kv::SequenceKvState state = m.make_kv_state();
  const Tensor logits = m.prefill(state, make_prompt(12), 0, policy);
  for (const float v : logits.span()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Transformer, DecodeMatchesOneTokenPromptChunks) {
  // Full-stack parity of the two phases: the same token stream fed through
  // decode() (a decode step) and through one-token prefill chunks (a prompt
  // chunk), every layer, under full attention so both caches keep
  // identical rows. Both run the one forward pass, whose phase only names
  // trace spans, so LM logits must be bit-identical at every step.
  for (const auto kind : {PositionalKind::kRoPE, PositionalKind::kALiBi,
                          PositionalKind::kLearned}) {
    const ModelConfig cfg = tiny_config(kind);
    const auto prompt = make_prompt(16);
    Transformer m(cfg);
    kv::SequenceKvState decoded = m.make_kv_state();
    kv::SequenceKvState chunked = m.make_kv_state();
    kv::FullAttentionPolicy p_decoded;
    kv::FullAttentionPolicy p_chunked;
    m.prefill(decoded, prompt, 0, p_decoded);
    m.prefill(chunked, prompt, 0, p_chunked);
    for (std::size_t t = 1; t <= 4; ++t) {
      const Token tok = static_cast<Token>(t);
      const std::size_t pos = prompt.size() + t - 1;
      const std::vector<float> a = m.decode(decoded, tok, pos, t, p_decoded);
      const Tensor b = m.prefill(chunked, {&tok, 1}, pos, p_chunked);
      ASSERT_EQ(a.size(), b.dim(1));
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b.row(0)[i])
            << to_string(kind) << " step " << t << " logit " << i;
      }
    }
  }
}

TEST(Transformer, EveryEntryPointRejectsMismatchedHeadSplit) {
  // Same layer count and row width (2 x 8 == 4 x 4) as the model, different
  // head split: every entry point must refuse the state before any kernel
  // reads it as a 4-head cache, and prefill before its row-count check.
  ModelConfig cfg = tiny_config();
  cfg.n_heads = 4;
  Transformer m(cfg);
  kv::SequenceKvState state(/*n_layers=*/2, /*n_heads=*/2, /*d_head=*/8);
  kv::FullAttentionPolicy policy;
  const auto prompt = make_prompt(4);
  EXPECT_THROW(m.prefill(state, prompt, 0, policy), std::invalid_argument);
  EXPECT_THROW(m.prefill(state, prompt, 4, policy), std::invalid_argument);
  EXPECT_THROW(m.decode(state, 1, 0, 1, policy), std::invalid_argument);
  EXPECT_THROW(m.decode(state, std::span<const Token>(prompt), 0, 1, policy),
               std::invalid_argument);
  const DecodeSlot slot{1, 0, 1, &state, &policy};
  EXPECT_THROW(m.step_batch({&slot, 1}), std::invalid_argument);
}

TEST(Transformer, MultiTokenDecodeRejectsNoTokens) {
  Transformer m(tiny_config());
  kv::SequenceKvState state = m.make_kv_state();
  kv::FullAttentionPolicy policy;
  m.prefill(state, make_prompt(4), 0, policy);
  EXPECT_THROW(m.decode(state, std::span<const Token>{}, 4, 1, policy),
               std::invalid_argument);
  EXPECT_EQ(state.layer_size(0), 4u);
}

template <typename T>
std::vector<std::remove_const_t<T>> to_vector(std::span<T> values) {
  return {values.begin(), values.end()};
}

/// One observation as a comparable record: layer, step and the key
/// positions the rows attended.
struct Seen {
  std::size_t layer;
  std::size_t decode_step;
  std::vector<std::size_t> keys;
  bool operator==(const Seen&) const = default;
};

TEST(Transformer, MultiTokenDecodeEqualsOneTokenCalls) {
  // A resumed sequence replays its committed tokens in one decode call:
  // per layer, GEMMs over every row, each row appended, attended and
  // evicted after in turn; one forward call per token instead for a
  // policy whose layers share state (Random, Keyformer's shared scope) or
  // under an observer. Either way the call must leave the last logits,
  // every layer's K/V rows, kept positions, per-head scores and noise
  // rows, and the policy's shared table, exactly as N one-token calls.
  constexpr std::size_t kPrompt = 16;
  constexpr std::size_t kSteps = 9;
  std::vector<kv::PolicyConfig> policies;
  for (const auto kind :
       {kv::PolicyKind::kFull, kv::PolicyKind::kWindow,
        kv::PolicyKind::kDilatedWindow, kv::PolicyKind::kRandom,
        kv::PolicyKind::kKeyAttention, kv::PolicyKind::kH2O,
        kv::PolicyKind::kStreamingLLM, kv::PolicyKind::kKeyformer}) {
    kv::PolicyConfig pc;
    pc.kind = kind;
    policies.push_back(pc);
  }
  policies.push_back(policies.back());
  policies.back().keyformer.scope = kv::ScoreScope::kShared;
  std::vector<Token> tokens(kSteps);
  for (std::size_t i = 0; i < kSteps; ++i) {
    tokens[i] = static_cast<Token>((i * 11 + 3) % 64);
  }

  for (const auto family : {PositionalKind::kRoPE, PositionalKind::kALiBi,
                            PositionalKind::kLearned}) {
    for (const auto mode : {PositionMode::kOriginal, PositionMode::kNew}) {
      for (const kv::PolicyConfig& pc : policies) {
        for (const bool observed : {false, true}) {
          SCOPED_TRACE(to_string(family) + " " + to_string(mode) + " " +
                       kv::to_string(pc.kind) +
                       (pc.keyformer.scope == kv::ScoreScope::kShared
                            ? " shared"
                            : "") +
                       (observed ? " observed" : ""));
          Transformer m(tiny_config(family));
          m.set_position_mode(mode);
          std::vector<Seen> seen;
          if (observed) {
            m.set_observer([&](const AttentionObservation& obs) {
              if (obs.is_prompt) return;
              seen.push_back({obs.layer, obs.decode_step,
                              {obs.key_positions.begin(),
                               obs.key_positions.end()}});
            });
          }
          const auto start = [&](kv::SequenceKvState& state,
                                 kv::EvictionPolicy& policy) {
            policy.set_budget(kv::make_budget(kPrompt, 0.5));
            policy.begin_sequence({kPrompt, kSteps});
            m.prefill(state, make_prompt(kPrompt), 0, policy);
          };
          kv::SequenceKvState stepped = m.make_kv_state();
          const auto p_stepped = kv::make_policy(pc);
          start(stepped, *p_stepped);
          std::vector<float> last;
          for (std::size_t i = 0; i < kSteps; ++i) {
            last = m.decode(stepped, tokens[i], kPrompt + i, 1 + i,
                            *p_stepped);
          }
          const std::vector<Seen> seen_stepped = std::move(seen);
          seen.clear();

          kv::SequenceKvState replayed = m.make_kv_state();
          const auto p_replayed = kv::make_policy(pc);
          start(replayed, *p_replayed);
          EXPECT_EQ(m.decode(replayed, std::span<const Token>(tokens),
                             kPrompt, 1, *p_replayed),
                    last);
          EXPECT_EQ(seen, seen_stepped);
          EXPECT_EQ(seen.size(), observed ? kSteps * 2 : 0u);

          for (std::size_t l = 0; l < 2; ++l) {
            const kv::KvCache& a = stepped.layer(l);
            const kv::KvCache& b = replayed.layer(l);
            ASSERT_EQ(a.size(), b.size()) << "layer " << l;
            EXPECT_EQ(to_vector(a.original_positions()),
                      to_vector(b.original_positions()))
                << "layer " << l;
            for (std::size_t i = 0; i < a.size(); ++i) {
              EXPECT_EQ(a.key_row(i), b.key_row(i)) << "layer " << l;
              EXPECT_EQ(a.value_row(i), b.value_row(i)) << "layer " << l;
            }
            for (std::size_t h = 0; h < a.n_heads(); ++h) {
              EXPECT_EQ(to_vector(a.scores(h)), to_vector(b.scores(h)))
                  << "layer " << l << " head " << h;
              EXPECT_EQ(to_vector(a.noise(h)), to_vector(b.noise(h)))
                  << "layer " << l << " head " << h;
            }
          }
          if (const auto* k =
                  dynamic_cast<const kv::KeyformerPolicy*>(p_stepped.get())) {
            const auto& r =
                dynamic_cast<const kv::KeyformerPolicy&>(*p_replayed);
            EXPECT_EQ(to_vector(k->shared_scores()),
                      to_vector(r.shared_scores()));
          }
        }
      }
    }
  }
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
    kv::SequenceKvState state = m.make_kv_state();
    m.prefill(state, prompt, 0, policy);
    return m.decode(state, 3, 16, 1, policy);
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
