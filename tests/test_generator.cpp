#include "model/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kvcache/policy_factory.h"

namespace kf::model {
namespace {

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 256;
  return cfg;
}

std::vector<Token> make_prompt(std::size_t n) {
  std::vector<Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Token>((i * 11 + 3) % 64);
  }
  return p;
}

TEST(SelectGreedy, PicksArgmax) {
  const std::vector<float> logits{0.1F, 3.0F, -1.0F};
  EXPECT_EQ(select_greedy(logits, {}, 0.0F), 1);
}

TEST(SelectGreedy, RepetitionPenaltyShiftsChoice) {
  const std::vector<float> logits{1.0F, 1.5F, 0.0F};
  const std::vector<Token> recent{1};
  EXPECT_EQ(select_greedy(logits, recent, 1.0F), 0);
  EXPECT_EQ(select_greedy(logits, recent, 0.0F), 1);
}

TEST(SelectGreedy, BannedTokensNeverSelected) {
  const std::vector<float> logits{10.0F, 1.0F, 0.5F};
  const std::vector<Token> banned{0};
  EXPECT_EQ(select_greedy(logits, {}, 0.0F, banned), 1);
}

TEST(SelectGreedy, IgnoresOutOfRangeEntries) {
  const std::vector<float> logits{1.0F, 2.0F};
  const std::vector<Token> recent{-5, 99};
  EXPECT_EQ(select_greedy(logits, recent, 1.0F), 1);
}

TEST(Generate, ProducesRequestedTokenCount) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  GenerationConfig cfg;
  cfg.max_new_tokens = 12;
  const auto prompt = make_prompt(10);
  const GenerationResult r = generate(m, prompt, *policy, cfg);
  EXPECT_EQ(r.tokens.size(), 12u);
  EXPECT_EQ(r.prompt_len, 10u);
}

TEST(Generate, RejectsEmptyPrompt) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  EXPECT_THROW(generate(m, {}, *policy, GenerationConfig{}),
               std::invalid_argument);
}

TEST(Generate, RejectsTokenOutsideVocabulary) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  const std::vector<Token> bad{1, 200, 3};
  EXPECT_THROW(generate(m, bad, *policy, GenerationConfig{}),
               std::invalid_argument);
}

TEST(Generate, Deterministic) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
  GenerationConfig cfg;
  cfg.max_new_tokens = 10;
  cfg.cache_ratio = 0.5;
  const auto prompt = make_prompt(24);
  const GenerationResult a = generate(m, prompt, *policy, cfg);
  const GenerationResult b = generate(m, prompt, *policy, cfg);
  EXPECT_EQ(a.tokens, b.tokens);
}

TEST(Generate, FullAttentionCacheGrows) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  GenerationConfig cfg;
  cfg.max_new_tokens = 8;
  const auto prompt = make_prompt(10);
  const GenerationResult r = generate(m, prompt, *policy, cfg);
  // Prompt + 7 decode appends (the last generated token is never fed back).
  for (std::size_t l = 0; l < r.state.n_layers(); ++l) {
    EXPECT_EQ(r.state.layer_size(l), 10u + 7u);
  }
}

class ReducedCacheBudget : public ::testing::TestWithParam<double> {};

TEST_P(ReducedCacheBudget, StaticCacheSizeDuringGeneration) {
  const double ratio = GetParam();
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
  GenerationConfig cfg;
  cfg.max_new_tokens = 8;
  cfg.cache_ratio = ratio;
  const auto prompt = make_prompt(40);
  const GenerationResult r = generate(m, prompt, *policy, cfg);
  const kv::CacheBudget expected = kv::make_budget(40, ratio);
  EXPECT_EQ(r.budget.max_tokens, expected.max_tokens);
  for (std::size_t l = 0; l < r.state.n_layers(); ++l) {
    EXPECT_EQ(r.state.layer_size(l), expected.max_tokens);
  }
  // Transiently the cache holds k + 1 entries (append then evict).
  EXPECT_LE(r.peak_cache_tokens,
            std::max<std::size_t>(40, expected.max_tokens + 1));
}

INSTANTIATE_TEST_SUITE_P(Ratios, ReducedCacheBudget,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Generate, EosStopsEarly) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  GenerationConfig cfg;
  cfg.max_new_tokens = 50;
  // Force every selection to the same token by banning nothing and making
  // eos whatever gets generated first.
  const auto prompt = make_prompt(8);
  const GenerationResult probe = generate(m, prompt, *policy, cfg);
  ASSERT_FALSE(probe.tokens.empty());
  cfg.eos_token = probe.tokens[0];
  const GenerationResult r = generate(m, prompt, *policy, cfg);
  EXPECT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0], cfg.eos_token);
}

TEST(Generate, BannedTokensAbsentFromOutput) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  GenerationConfig cfg;
  cfg.max_new_tokens = 16;
  cfg.banned_tokens = {0, 1, 2, 3};
  const GenerationResult r = generate(m, make_prompt(10), *policy, cfg);
  for (const Token t : r.tokens) {
    EXPECT_GT(t, 3);
  }
}

TEST(Generate, RepetitionPenaltyReducesDuplicates) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  GenerationConfig with;
  with.max_new_tokens = 16;
  with.repetition_penalty = 4.0F;
  GenerationConfig without = with;
  without.repetition_penalty = 0.0F;
  const auto prompt = make_prompt(12);
  const auto count_distinct = [](const std::vector<Token>& ts) {
    std::vector<Token> u = ts;
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    return u.size();
  };
  const GenerationResult a = generate(m, prompt, *policy, with);
  const GenerationResult b = generate(m, prompt, *policy, without);
  EXPECT_GE(count_distinct(a.tokens), count_distinct(b.tokens));
}

TEST(Generate, PerPhaseTimingRecorded) {
  Transformer m(tiny_config());
  auto policy = kv::make_policy(kv::PolicyKind::kFull);
  GenerationConfig cfg;
  cfg.max_new_tokens = 4;
  const GenerationResult r = generate(m, make_prompt(6), *policy, cfg);
  EXPECT_GT(r.prefill_seconds, 0.0);
  EXPECT_GT(r.decode_seconds, 0.0);
  EXPECT_GT(r.wall_seconds(), 0.0);
  // 4 tokens: 1 from prefill logits + 3 decode steps.
  EXPECT_NEAR(r.decode_tokens_per_s(), 3.0 / r.decode_seconds, 1e-9);
}

}  // namespace
}  // namespace kf::model
