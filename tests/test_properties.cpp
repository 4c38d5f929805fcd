// Property-style parameterized suites over (policy x budget x model
// family): the invariants every eviction scheme must uphold end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "data/synthetic.h"
#include "kvcache/kv_cache.h"
#include "kvcache/kv_state.h"
#include "kvcache/policy_factory.h"
#include "model/generator.h"

namespace kf {
namespace {

model::ModelConfig family_config(model::PositionalKind pos) {
  model::ModelConfig cfg;
  cfg.vocab_size = 256;
  cfg.d_model = 48;
  cfg.n_layers = 2;
  cfg.n_heads = pos == model::PositionalKind::kALiBi ? 6 : 4;
  cfg.d_ff = 96;
  cfg.positional = pos;
  cfg.max_seq_len = 512;
  cfg.weight_seed = 99;
  return cfg;
}

data::Sample doc_sample() {
  data::SummarizationConfig dc;
  dc.doc_len = 120;
  dc.n_facts = 8;
  dc.vocab_size = 256;
  return data::make_summarization_sample(dc, 0);
}

using PropertyParam =
    std::tuple<kv::PolicyKind, double, model::PositionalKind>;

class GenerationInvariants
    : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(GenerationInvariants, BudgetOrderAndDeterminism) {
  const auto [kind, ratio, pos] = GetParam();
  model::Transformer m(family_config(pos));
  const data::Sample s = doc_sample();

  kv::PolicyConfig pc;
  pc.kind = kind;
  auto policy = kv::make_policy(pc);
  model::GenerationConfig g;
  g.max_new_tokens = 8;
  g.cache_ratio = ratio;
  const model::GenerationResult r = model::generate(m, s.prompt, *policy, g);

  // 1. Tokens produced.
  EXPECT_EQ(r.tokens.size(), 8u);

  // 2. Budget invariant: every layer's cache sits exactly at budget.
  const kv::CacheBudget b = kv::make_budget(s.prompt.size(), ratio);
  for (std::size_t l = 0; l < r.state.n_layers(); ++l) {
    EXPECT_EQ(r.state.layer_size(l), b.max_tokens);
  }

  // 3. Original-position order ascending in every cache.
  for (std::size_t l = 0; l < m.config().n_layers; ++l) {
    const auto posns = r.state.layer(l).original_positions();
    EXPECT_TRUE(std::is_sorted(posns.begin(), posns.end()));
  }

  // 4. Deterministic rerun.
  auto policy2 = kv::make_policy(pc);
  const model::GenerationResult r2 =
      model::generate(m, s.prompt, *policy2, g);
  EXPECT_EQ(r.tokens, r2.tokens);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBudgetFamily, GenerationInvariants,
    ::testing::Combine(
        ::testing::Values(kv::PolicyKind::kWindow, kv::PolicyKind::kRandom,
                          kv::PolicyKind::kH2O, kv::PolicyKind::kStreamingLLM,
                          kv::PolicyKind::kKeyformer),
        ::testing::Values(0.25, 0.5, 0.75),
        ::testing::Values(model::PositionalKind::kRoPE,
                          model::PositionalKind::kALiBi,
                          model::PositionalKind::kLearned)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 100)) +
             "_" + to_string(std::get<2>(info.param));
    });

class RecentWindowGuarantee
    : public ::testing::TestWithParam<kv::PolicyKind> {};

TEST_P(RecentWindowGuarantee, TrailingTokensAlwaysCached) {
  // Window/H2O/Keyformer/StreamingLLM all guarantee the most recent token
  // stays cached after every decode step.
  model::Transformer m(family_config(model::PositionalKind::kRoPE));
  const data::Sample s = doc_sample();
  auto policy = kv::make_policy(GetParam());
  model::GenerationConfig g;
  g.max_new_tokens = 8;
  g.cache_ratio = 0.3;
  const model::GenerationResult r = model::generate(m, s.prompt, *policy, g);
  // Last appended position: prompt + 7 steps - 1.
  const std::size_t last_pos = s.prompt.size() + 8 - 2;
  for (std::size_t l = 0; l < m.config().n_layers; ++l) {
    const auto posns = r.state.layer(l).original_positions();
    ASSERT_FALSE(posns.empty());
    EXPECT_EQ(posns.back(), last_pos) << "layer " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, RecentWindowGuarantee,
                         ::testing::Values(kv::PolicyKind::kWindow,
                                           kv::PolicyKind::kH2O,
                                           kv::PolicyKind::kStreamingLLM,
                                           kv::PolicyKind::kKeyformer),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

class KeyformerBudgetMonotone : public ::testing::TestWithParam<double> {};

TEST_P(KeyformerBudgetMonotone, MoreBudgetKeepsMoreFacts) {
  const double ratio = GetParam();
  model::Transformer m(family_config(model::PositionalKind::kRoPE));
  const data::Sample s = doc_sample();

  const auto kept_at = [&](double r) {
    auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
    model::GenerationConfig g;
    g.max_new_tokens = 6;
    g.cache_ratio = r;
    const auto gen = model::generate(m, s.prompt, *policy, g);
    std::size_t kept = 0;
    const auto posns = gen.state.layer(0).original_positions();
    for (const std::size_t p : s.fact_positions) {
      if (std::find(posns.begin(), posns.end(), p) != posns.end()) ++kept;
    }
    return kept;
  };
  EXPECT_LE(kept_at(ratio), kept_at(std::min(1.0, ratio + 0.3)) + 1);
}

INSTANTIATE_TEST_SUITE_P(Ratios, KeyformerBudgetMonotone,
                         ::testing::Values(0.2, 0.4, 0.6));

TEST(Properties, Damping1IsCanonicalH2O) {
  model::Transformer m(family_config(model::PositionalKind::kRoPE));
  const data::Sample s = doc_sample();
  model::GenerationConfig g;
  g.max_new_tokens = 6;
  g.cache_ratio = 0.4;

  kv::PolicyConfig a;
  a.kind = kv::PolicyKind::kH2O;
  a.h2o_damping = 1.0;
  auto p1 = kv::make_policy(a);
  const auto r1 = model::generate(m, s.prompt, *p1, g);

  auto p2 = kv::make_policy(kv::PolicyKind::kH2O);
  const auto r2 = model::generate(m, s.prompt, *p2, g);
  EXPECT_EQ(r1.tokens, r2.tokens);
}

TEST(Properties, DampingReweightsTowardRecentEvidence) {
  // Two-phase scenario: phase 1 boosts token A, phase 2 boosts token B.
  // Without damping, A's earlier accumulation wins; with strong damping,
  // the recency-weighted score ranks B above A.
  kv::SequenceKvState plain_state(1, 1, 1), damped_state(1, 1, 1);
  kv::KvCache& plain = plain_state.layer(0);
  kv::KvCache& damped = damped_state.layer(0);
  const std::vector<float> row{0.0F};
  for (std::size_t i = 0; i < 4; ++i) {
    plain.append(row, row, i);
    damped.append(row, row, i);
  }
  const std::size_t a = 0, b = 1;
  // Phase 1: three updates favoring A.
  for (int step = 0; step < 3; ++step) {
    plain.add_score(0, a, 1.0);
    damped.damp_scores(0.5);
    damped.add_score(0, a, 1.0);
  }
  // Phase 2: two updates favoring B.
  for (int step = 0; step < 2; ++step) {
    plain.add_score(0, b, 1.0);
    damped.damp_scores(0.5);
    damped.add_score(0, b, 1.0);
  }
  EXPECT_GT(plain.total_score(a), plain.total_score(b));
  EXPECT_LT(damped.total_score(a), damped.total_score(b));
}

TEST(Properties, DilatedWindowReachesFurtherBack) {
  model::Transformer m(family_config(model::PositionalKind::kRoPE));
  const data::Sample s = doc_sample();
  model::GenerationConfig g;
  g.max_new_tokens = 4;
  g.cache_ratio = 0.3;

  auto window = kv::make_policy(kv::PolicyKind::kWindow);
  const auto window_run = model::generate(m, s.prompt, *window, g);
  const std::size_t window_oldest =
      window_run.state.layer(0).original_position(0);

  auto dilated = kv::make_policy(kv::PolicyKind::kDilatedWindow);
  const auto dilated_run = model::generate(m, s.prompt, *dilated, g);
  const std::size_t dilated_oldest =
      dilated_run.state.layer(0).original_position(0);
  EXPECT_LT(dilated_oldest, window_oldest);
}

}  // namespace
}  // namespace kf
