// Integration tests: model + data + policies + metrics wired together the
// way the benches use them.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic.h"
#include "data/vocab.h"
#include "eval/experiment.h"
#include "kvcache/policy_factory.h"
#include "model/generator.h"

namespace kf {
namespace {

model::ModelConfig small_config() {
  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  cfg.d_model = 64;
  cfg.n_layers = 2;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  return cfg;
}

data::SummarizationConfig small_docs() {
  data::SummarizationConfig dc;
  dc.doc_len = 160;
  dc.n_facts = 8;
  return dc;
}

TEST(EndToEnd, SalientRangeCouplingHolds) {
  // kf::model's salient token range must coincide with kf::data's fact
  // range — both derive it from vocab_size independently.
  const model::ModelConfig cfg = small_config();
  const data::TokenClasses classes(cfg.vocab_size);
  EXPECT_EQ(cfg.salient_begin(),
            static_cast<std::size_t>(classes.fact_begin));
  EXPECT_EQ(cfg.salient_end(), static_cast<std::size_t>(classes.fact_end));
}

TEST(EndToEnd, FullAttentionFidelityIsOne) {
  model::Transformer m(small_config());
  const auto samples = data::make_summarization_set(small_docs(), 2);
  auto full = kv::make_policy(kv::PolicyKind::kFull);
  eval::EvalConfig ec;
  ec.max_new_tokens = 16;
  const auto outputs = eval::generate_outputs(m, samples, *full, ec);
  const auto res =
      eval::evaluate_policy_on_task(m, samples, *full, ec, &outputs);
  EXPECT_DOUBLE_EQ(res.fid_rouge1, 1.0);
  EXPECT_DOUBLE_EQ(res.fid_rouge2, 1.0);
  EXPECT_DOUBLE_EQ(res.fid_rougeL, 1.0);
}

TEST(EndToEnd, ReducedPoliciesLoseSomeFidelity) {
  model::Transformer m(small_config());
  const auto samples = data::make_summarization_set(small_docs(), 2);
  auto full = kv::make_policy(kv::PolicyKind::kFull);
  eval::EvalConfig ec;
  ec.max_new_tokens = 16;
  const auto outputs = eval::generate_outputs(m, samples, *full, ec);
  ec.cache_ratio = 0.3;
  for (const auto kind : {kv::PolicyKind::kWindow, kv::PolicyKind::kH2O,
                          kv::PolicyKind::kKeyformer}) {
    auto policy = kv::make_policy(kind);
    const auto res =
        eval::evaluate_policy_on_task(m, samples, *policy, ec, &outputs);
    EXPECT_LT(res.fid_rouge1, 1.0) << to_string(kind);
    EXPECT_GT(res.fid_rouge1, 0.0) << to_string(kind);
  }
}

double kept_fact_fraction(const kv::SequenceKvState& state,
                          const data::Sample& s) {
  double total = 0.0;
  for (std::size_t l = 0; l < state.n_layers(); ++l) {
    const auto pos = state.layer(l).original_positions();
    std::size_t kept = 0;
    for (const std::size_t p : s.fact_positions) {
      if (std::find(pos.begin(), pos.end(), p) != pos.end()) ++kept;
    }
    total += static_cast<double>(kept) /
             static_cast<double>(s.fact_positions.size());
  }
  return total / static_cast<double>(state.n_layers());
}

TEST(EndToEnd, KeyformerRetainsMoreFactsThanWindow) {
  // At a tight budget the trailing window misses most of the mid-document
  // fact zone; Keyformer's score function reaches back for it. (At looser
  // budgets a window that happens to cover the fact zone can keep more —
  // that is the Fig 7 crossover, not a bug.)
  model::Transformer m(model::ModelConfig::gptj_like());
  data::SummarizationConfig dc = small_docs();
  dc.n_distractors = 1;  // isolate the reach-back mechanism
  dc.distractor_repeats = 6;
  const auto samples = data::make_summarization_set(dc, 3);
  model::GenerationConfig g;
  g.max_new_tokens = 12;
  g.cache_ratio = 0.25;

  double kf_kept = 0.0, win_kept = 0.0;
  for (const auto& s : samples) {
    auto keyformer = kv::make_policy(kv::PolicyKind::kKeyformer);
    const auto kf_run = model::generate(m, s.prompt, *keyformer, g);
    kf_kept += kept_fact_fraction(kf_run.state, s);
    auto window = kv::make_policy(kv::PolicyKind::kWindow);
    const auto win_run = model::generate(m, s.prompt, *window, g);
    win_kept += kept_fact_fraction(win_run.state, s);
  }
  EXPECT_GT(kf_kept, win_kept);
}

TEST(EndToEnd, KeyformerRetainsMoreFactsThanH2OUnderDistractors) {
  // The Section 2.3.2 failure mode: H2O's accumulated-attention score is
  // dominated by the heavy early distractors; Keyformer's regularized
  // score keeps more of the genuinely referenced facts.
  model::ModelConfig cfg = small_config();
  model::Transformer m(cfg);
  data::SummarizationConfig dc = small_docs();
  dc.n_distractors = 5;
  dc.distractor_repeats = 16;
  const auto samples = data::make_summarization_set(dc, 4);
  model::GenerationConfig g;
  g.max_new_tokens = 12;
  g.cache_ratio = 0.35;

  double kf_kept = 0.0, h2o_kept = 0.0;
  for (const auto& s : samples) {
    auto keyformer = kv::make_policy(kv::PolicyKind::kKeyformer);
    const auto kf_run = model::generate(m, s.prompt, *keyformer, g);
    kf_kept += kept_fact_fraction(kf_run.state, s);
    auto h2o = kv::make_policy(kv::PolicyKind::kH2O);
    const auto h2o_run = model::generate(m, s.prompt, *h2o, g);
    h2o_kept += kept_fact_fraction(h2o_run.state, s);
  }
  EXPECT_GT(kf_kept, h2o_kept);
}

TEST(EndToEnd, StreamingLlmPinsSinksThroughGeneration) {
  model::Transformer m(small_config());
  const auto s = data::make_summarization_sample(small_docs(), 0);
  auto policy = kv::make_policy(kv::PolicyKind::kStreamingLLM);
  model::GenerationConfig g;
  g.max_new_tokens = 10;
  g.cache_ratio = 0.3;
  const model::GenerationResult r = model::generate(m, s.prompt, *policy, g);
  for (std::size_t l = 0; l < m.config().n_layers; ++l) {
    const auto pos = r.state.layer(l).original_positions();
    for (std::size_t sink = 0; sink < 4; ++sink) {
      EXPECT_NE(std::find(pos.begin(), pos.end(), sink), pos.end())
          << "layer " << l << " sink " << sink;
    }
  }
}

TEST(EndToEnd, AllThreeModelFamiliesRunAllPolicies) {
  for (auto base :
       {model::ModelConfig::gptj_like(), model::ModelConfig::cerebras_like(),
        model::ModelConfig::mpt_like()}) {
    base.d_model = 64;
    base.n_layers = 2;
    base.d_ff = 128;
    if (base.positional == model::PositionalKind::kALiBi) base.n_heads = 8;
    else base.n_heads = 4;
    model::Transformer m(base);
    const auto s = data::make_summarization_sample(small_docs(), 1);
    for (const auto kind :
         {kv::PolicyKind::kFull, kv::PolicyKind::kWindow,
          kv::PolicyKind::kDilatedWindow, kv::PolicyKind::kRandom,
          kv::PolicyKind::kKeyAttention, kv::PolicyKind::kH2O,
          kv::PolicyKind::kStreamingLLM, kv::PolicyKind::kKeyformer}) {
      auto policy = kv::make_policy(kind);
      model::GenerationConfig g;
      g.max_new_tokens = 6;
      g.cache_ratio = kind == kv::PolicyKind::kFull ? 1.0 : 0.5;
      const auto r = model::generate(m, s.prompt, *policy, g);
      EXPECT_EQ(r.tokens.size(), 6u)
          << base.name << " " << to_string(kind);
    }
  }
}

TEST(EndToEnd, SharedVsPerLayerScoreDiffer) {
  model::Transformer m(small_config());
  const auto s = data::make_summarization_sample(small_docs(), 2);
  model::GenerationConfig g;
  g.max_new_tokens = 10;
  g.cache_ratio = 0.4;

  kv::PolicyConfig per_layer;
  per_layer.kind = kv::PolicyKind::kKeyformer;
  auto p1 = kv::make_policy(per_layer);
  const auto r1 = model::generate(m, s.prompt, *p1, g);

  const auto layer_jaccard = [](const kv::SequenceKvState& state) {
    const auto a = state.layer(0).original_positions();
    const auto b = state.layer(1).original_positions();
    std::size_t inter = 0;
    for (const std::size_t p : a) {
      if (std::find(b.begin(), b.end(), p) != b.end()) ++inter;
    }
    const std::size_t uni = a.size() + b.size() - inter;
    return static_cast<double>(inter) / static_cast<double>(uni);
  };
  const double per_layer_jaccard = layer_jaccard(r1.state);

  kv::PolicyConfig shared = per_layer;
  shared.keyformer.scope = kv::ScoreScope::kShared;
  auto p2 = kv::make_policy(shared);
  const auto r2 = model::generate(m, s.prompt, *p2, g);
  const double shared_jaccard = layer_jaccard(r2.state);

  // A single global score function makes the layers' keep sets much more
  // similar than per-layer scores do (they are not bit-identical because
  // the shared score keeps accumulating between the two layers' eviction
  // decisions within one step).
  EXPECT_GT(shared_jaccard, per_layer_jaccard);
  EXPECT_GT(shared_jaccard, 0.7);
}

}  // namespace
}  // namespace kf
