#include "model/weights.h"

#include <gtest/gtest.h>

#include <cmath>

namespace kf::model {
namespace {

TEST(ModelConfig, ValidateCatchesBadDims) {
  ModelConfig c;
  c.d_model = 130;
  c.n_heads = 4;  // not divisible
  EXPECT_THROW(c.validate(), std::invalid_argument);

  ModelConfig rope;
  rope.positional = PositionalKind::kRoPE;
  rope.d_model = 12;
  rope.n_heads = 4;  // d_head == 3, odd -> invalid for RoPE
  EXPECT_THROW(rope.validate(), std::invalid_argument);

  ModelConfig tiny_vocab;
  tiny_vocab.vocab_size = 4;
  EXPECT_THROW(tiny_vocab.validate(), std::invalid_argument);
}

TEST(ModelConfig, PresetsAreValid) {
  EXPECT_NO_THROW(ModelConfig::gptj_like().validate());
  EXPECT_NO_THROW(ModelConfig::cerebras_like().validate());
  EXPECT_NO_THROW(ModelConfig::mpt_like().validate());
  EXPECT_NO_THROW(ModelConfig::mpt_storywriter_like().validate());
}

TEST(ModelConfig, PresetsUseDistinctPositionalFamilies) {
  EXPECT_EQ(ModelConfig::gptj_like().positional, PositionalKind::kRoPE);
  EXPECT_EQ(ModelConfig::cerebras_like().positional,
            PositionalKind::kLearned);
  EXPECT_EQ(ModelConfig::mpt_like().positional, PositionalKind::kALiBi);
}

TEST(ModelConfig, SalientRangeMatchesTokenClassConvention) {
  // data::TokenClasses uses the same formula; this guards the coupling.
  ModelConfig c;
  c.vocab_size = 512;
  EXPECT_EQ(c.salient_begin(), 4u);
  EXPECT_EQ(c.salient_end(), 4u + 128u);
  c.vocab_size = 256;
  EXPECT_EQ(c.salient_end(), 4u + 64u);
}

TEST(Weights, DeterministicForSameSeed) {
  const ModelConfig cfg = ModelConfig::gptj_like();
  const ModelWeights a = build_weights(cfg);
  const ModelWeights b = build_weights(cfg);
  ASSERT_EQ(a.embedding.size(), b.embedding.size());
  for (std::size_t i = 0; i < a.embedding.size(); ++i) {
    EXPECT_EQ(a.embedding.span()[i], b.embedding.span()[i]);
  }
  for (std::size_t i = 0; i < a.layers[0].wq.size(); ++i) {
    EXPECT_EQ(a.layers[0].wq.span()[i], b.layers[0].wq.span()[i]);
  }
}

TEST(Weights, SeedChangesWeights) {
  ModelConfig cfg = ModelConfig::gptj_like();
  const ModelWeights a = build_weights(cfg);
  cfg.weight_seed += 1;
  const ModelWeights b = build_weights(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < a.embedding.size() && !differs; ++i) {
    differs = a.embedding.span()[i] != b.embedding.span()[i];
  }
  EXPECT_TRUE(differs);
}

TEST(Weights, EmbeddingRowsUnitNorm) {
  const ModelWeights w = build_weights(ModelConfig::gptj_like());
  for (std::size_t r = 0; r < w.embedding.dim(0); r += 37) {
    double norm2 = 0.0;
    for (const float v : w.embedding.row(r)) {
      norm2 += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(norm2, 1.0, 1e-4);
  }
}

TEST(Weights, LmHeadIsRawWithoutSalience) {
  // Salient embeddings share the salience direction; lm_head columns must
  // not (they are the pre-mixing raws, stored [d_model, vocab]). Mean
  // pairwise dot of salient embedding rows exceeds that of lm_head columns.
  const ModelConfig cfg = ModelConfig::gptj_like();
  const ModelWeights w = build_weights(cfg);
  ASSERT_EQ(w.lm_head.dim(0), cfg.d_model);
  ASSERT_EQ(w.lm_head.dim(1), cfg.vocab_size);
  double emb_dot = 0.0, head_dot = 0.0;
  int pairs = 0;
  for (std::size_t a = cfg.salient_begin(); a < cfg.salient_begin() + 20;
       ++a) {
    for (std::size_t b = a + 1; b < cfg.salient_begin() + 20; ++b) {
      double de = 0.0, dh = 0.0;
      for (std::size_t j = 0; j < cfg.d_model; ++j) {
        de += static_cast<double>(w.embedding.at(a, j)) *
              w.embedding.at(b, j);
        dh += static_cast<double>(w.lm_head.at(j, a)) * w.lm_head.at(j, b);
      }
      emb_dot += de;
      head_dot += dh;
      ++pairs;
    }
  }
  EXPECT_GT(emb_dot / pairs, head_dot / pairs + 0.1);
}

TEST(Weights, LearnedPositionalTableOnlyForCerebras) {
  EXPECT_GT(build_weights(ModelConfig::cerebras_like()).pos_embedding.size(),
            0u);
  EXPECT_EQ(build_weights(ModelConfig::gptj_like()).pos_embedding.size(), 0u);
  EXPECT_EQ(build_weights(ModelConfig::mpt_like()).pos_embedding.size(), 0u);
}

TEST(Weights, LearnedPositionsAreSmooth) {
  const ModelWeights w = build_weights(ModelConfig::cerebras_like());
  // Adjacent positions are more similar than distant ones.
  const auto dist2 = [&](std::size_t a, std::size_t b) {
    double acc = 0.0;
    for (std::size_t j = 0; j < w.pos_embedding.dim(1); ++j) {
      const double d = static_cast<double>(w.pos_embedding.at(a, j)) -
                       w.pos_embedding.at(b, j);
      acc += d * d;
    }
    return acc;
  };
  EXPECT_LT(dist2(100, 101), dist2(100, 400));
}

TEST(Weights, ParameterCountPositive) {
  const ModelWeights w = build_weights(ModelConfig::gptj_like());
  EXPECT_GT(w.parameter_count(), 100000u);
}

TEST(Weights, LayerCountMatchesConfig) {
  const ModelConfig cfg = ModelConfig::mpt_like();
  const ModelWeights w = build_weights(cfg);
  EXPECT_EQ(w.layers.size(), cfg.n_layers);
}

TEST(HeadRoles, CycleCoversAllRoles) {
  bool content = false, positional = false, mixing = false;
  for (std::size_t h = 0; h < 3; ++h) {
    switch (head_role(0, h)) {
      case HeadRole::kContent: content = true; break;
      case HeadRole::kPositional: positional = true; break;
      case HeadRole::kMixing: mixing = true; break;
    }
  }
  EXPECT_TRUE(content && positional && mixing);
}

TEST(HeadRoles, AlibiContentHeadsGetFlattestSlopes) {
  const ModelConfig cfg = ModelConfig::mpt_like();  // 8 heads
  EXPECT_EQ(head_role_for(cfg, 0, 0), HeadRole::kPositional);
  EXPECT_EQ(head_role_for(cfg, 0, 1), HeadRole::kPositional);
  EXPECT_EQ(head_role_for(cfg, 0, 6), HeadRole::kContent);
  EXPECT_EQ(head_role_for(cfg, 0, 7), HeadRole::kContent);
  EXPECT_EQ(head_role_for(cfg, 0, 3), HeadRole::kMixing);
}

TEST(Weights, RandomStyleProducesDenseMatrices) {
  ModelConfig cfg = ModelConfig::gptj_like();
  cfg.weight_style = WeightStyle::kRandom;
  const ModelWeights w = build_weights(cfg);
  // No identity structure: diagonal should not dominate.
  double diag = 0.0, off = 0.0;
  const Tensor& wq = w.layers[0].wq;
  for (std::size_t i = 0; i < cfg.d_model; ++i) {
    diag += std::abs(wq.at(i, i));
    off += std::abs(wq.at(i, (i + 1) % cfg.d_model));
  }
  EXPECT_LT(diag, 3.0 * off);
}

}  // namespace
}  // namespace kf::model
