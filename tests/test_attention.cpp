#include "model/attention.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/rng.h"
#include "model/positional.h"
#include "model/weights.h"

namespace kf::model {
namespace {

ModelConfig tiny_config(PositionalKind pos = PositionalKind::kRoPE) {
  ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.positional = pos;
  cfg.max_seq_len = 256;
  return cfg;
}

using kf::Rng;

Tensor random_rows(std::size_t n, std::size_t d, std::uint64_t seed) {
  Tensor x({n, d});
  Rng rng(seed);
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  return x;
}

std::vector<std::size_t> iota_positions(std::size_t n, std::size_t start = 0) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

/// One decode step of a single sequence: a one-slot attention_decode_batch.
AttentionResult decode_one(const ModelConfig& cfg, const LayerWeights& w,
                           const Tensor& x, std::size_t q_position,
                           kv::KvCache& cache) {
  const DecodeBatchSlot slot{q_position, &cache};
  return std::move(attention_decode_batch(cfg, w, x, {&slot, 1}).front());
}

class AttentionAllPositional
    : public ::testing::TestWithParam<PositionalKind> {};

TEST_P(AttentionAllPositional, ProbsRowsSumToOneAndCausal) {
  const ModelConfig cfg = tiny_config(GetParam());
  const ModelWeights w = build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  const std::size_t n = 12;
  Tensor x = random_rows(n, cfg.d_model, 5);
  const auto positions = iota_positions(n);
  const AttentionResult r =
      attention_forward_general(cfg, w.layers[0], x, positions, cache);

  ASSERT_EQ(r.key_len, n);
  for (std::size_t h = 0; h < cfg.n_heads; ++h) {
    for (std::size_t q = 0; q < n; ++q) {
      const float* row = r.probs.data() + (h * n + q) * n;
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += row[i];
        if (i > q) {
          EXPECT_EQ(row[i], 0.0F) << "causality violated at q=" << q;
        }
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, AttentionAllPositional,
                         ::testing::Values(PositionalKind::kRoPE,
                                           PositionalKind::kALiBi,
                                           PositionalKind::kLearned),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Attention, AppendsToCache) {
  const ModelConfig cfg = tiny_config();
  const ModelWeights w = build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  Tensor x = random_rows(4, cfg.d_model, 6);
  attention_forward_general(cfg, w.layers[0], x, iota_positions(4), cache);
  EXPECT_EQ(cache.size(), 4u);
  Tensor y = random_rows(1, cfg.d_model, 7);
  decode_one(cfg, w.layers[0], y, 4, cache);
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.original_position(4), 4u);
}

TEST(Attention, DecodeRowAttendsWholeCache) {
  const ModelConfig cfg = tiny_config();
  const ModelWeights w = build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  Tensor x = random_rows(6, cfg.d_model, 8);
  attention_forward_general(cfg, w.layers[0], x, iota_positions(6), cache);
  Tensor q = random_rows(1, cfg.d_model, 9);
  const AttentionResult r = decode_one(cfg, w.layers[0], q, 6, cache);
  EXPECT_EQ(r.key_len, 7u);
  const float* row = r.probs.data();  // head 0, query 0
  double sum = 0.0;
  for (std::size_t i = 0; i < 7; ++i) sum += row[i];
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Attention, IdenticalTokensAttractContentAttention) {
  // A query identical to one cached token should put more mass there than
  // on unrelated tokens (content-head structure).
  const ModelConfig cfg = tiny_config(PositionalKind::kLearned);
  const ModelWeights w = build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  Tensor x({3, cfg.d_model});
  Rng rng(10);
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  // Make row 2 equal to row 0.
  for (std::size_t j = 0; j < cfg.d_model; ++j) {
    x.at(2, j) = x.at(0, j);
  }
  const AttentionResult r =
      attention_forward_general(cfg, w.layers[0], x, iota_positions(3), cache);
  // Find the content head (head 0 at layer 0 for the cycle assignment).
  const float* row = r.probs.data() + (0 * 3 + 2) * 3;  // head 0, query 2
  EXPECT_GT(row[0], row[1]);
}

TEST(Attention, RopePositionModeChangesLogitsAfterCompaction) {
  const ModelConfig org = tiny_config(PositionalKind::kRoPE);
  ModelConfig newpos = org;
  newpos.position_mode = PositionMode::kNew;
  const ModelWeights w = build_weights(org);

  const auto run = [&](const ModelConfig& cfg) {
    kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
    Tensor x = random_rows(8, cfg.d_model, 11);
    attention_forward_general(cfg, w.layers[0], x, iota_positions(8), cache);
    // Evict tokens 1..4 — kept tokens now have index != original position.
    cache.compact(std::vector<std::size_t>{0, 5, 6, 7});
    Tensor q = random_rows(1, cfg.d_model, 12);
    return decode_one(cfg, w.layers[0], q, 8, cache);
  };
  const AttentionResult a = run(org);
  const AttentionResult b = run(newpos);
  bool differs = false;
  for (std::size_t i = 0; i < a.logits.size() && !differs; ++i) {
    if (std::isfinite(a.logits.span()[i]) &&
        std::abs(a.logits.span()[i] - b.logits.span()[i]) > 1e-5F) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Attention, PositionModeIrrelevantBeforeEviction) {
  // With an uncompacted cache, index == original position, so both modes
  // must agree bit-for-bit.
  const ModelConfig org = tiny_config(PositionalKind::kALiBi);
  ModelConfig newpos = org;
  newpos.position_mode = PositionMode::kNew;
  const ModelWeights w = build_weights(org);
  const auto run = [&](const ModelConfig& cfg) {
    kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
    Tensor x = random_rows(6, cfg.d_model, 13);
    return attention_forward_general(cfg, w.layers[0], x, iota_positions(6),
                                     cache);
  };
  const AttentionResult a = run(org);
  const AttentionResult b = run(newpos);
  for (std::size_t i = 0; i < a.probs.size(); ++i) {
    EXPECT_EQ(a.probs.span()[i], b.probs.span()[i]);
  }
}

TEST(Attention, AlibiBiasFavorsRecencyOnPositionalHead) {
  const ModelConfig cfg = tiny_config(PositionalKind::kALiBi);
  const ModelWeights w = build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  // Identical token rows: content is symmetric, only ALiBi differentiates.
  Tensor x({24, cfg.d_model});
  Rng rng(14);
  std::vector<float> proto(cfg.d_model);
  for (auto& v : proto) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < cfg.d_model; ++j) x.at(i, j) = proto[j];
  }
  const AttentionResult r =
      attention_forward_general(cfg, w.layers[0], x, iota_positions(24), cache);
  // Positional head = head 0 (steepest slope). Mass on the most recent
  // non-self key should exceed mass on the most distant key.
  const std::size_t q = 23;
  const float* row = r.probs.data() + (0 * 24 + q) * 24;
  EXPECT_GT(row[22], row[0]);
}

// ---------------------------------------------------------------------------
// Decode-kernel parity: attention_decode_batch must reproduce the general
// kernel within float rounding for every positional family and both
// position modes, on compacted and uncompacted caches.
// ---------------------------------------------------------------------------

struct ParityCase {
  PositionalKind positional;
  PositionMode mode;
};

class DecodeParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DecodeParity, DecodeKernelMatchesGeneralKernel) {
  ModelConfig cfg = tiny_config(GetParam().positional);
  cfg.position_mode = GetParam().mode;
  const ModelWeights w = build_weights(cfg);

  // Populate two independent caches with the same prefill + a compaction
  // that scatters slot indices away from original positions.
  const auto prefill_one = [&](kv::KvCache& cache) {
    Tensor x = random_rows(10, cfg.d_model, 21);
    attention_forward_general(cfg, w.layers[0], x, iota_positions(10), cache);
    cache.compact(std::vector<std::size_t>{0, 1, 5, 7, 8, 9});
  };
  kv::ContiguousKvCache cache_general(cfg.n_heads, cfg.d_head());
  kv::ContiguousKvCache cache_decode(cfg.n_heads, cfg.d_head());
  prefill_one(cache_general);
  prefill_one(cache_decode);

  // Several decode steps so the parity covers growing caches too.
  for (std::size_t step = 0; step < 3; ++step) {
    Tensor q = random_rows(1, cfg.d_model, 22 + step);
    const std::size_t pos = 10 + step;
    const AttentionResult general = attention_forward_general(
        cfg, w.layers[0], q, iota_positions(1, pos), cache_general);
    const AttentionResult decoded =
        decode_one(cfg, w.layers[0], q, pos, cache_decode);

    ASSERT_EQ(general.key_len, decoded.key_len);
    for (std::size_t i = 0; i < general.logits.size(); ++i) {
      EXPECT_NEAR(general.logits.span()[i], decoded.logits.span()[i], 1e-5F)
          << "logit " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < general.probs.size(); ++i) {
      EXPECT_NEAR(general.probs.span()[i], decoded.probs.span()[i], 1e-5F)
          << "prob " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < general.context.size(); ++i) {
      EXPECT_NEAR(general.context.span()[i], decoded.context.span()[i], 1e-5F)
          << "context " << i << " at step " << step;
    }
    // The two caches must also stay identical (same appended K/V rows).
    ASSERT_EQ(cache_general.size(), cache_decode.size());
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      const auto kg = cache_general.keys_head(h);
      const auto kd = cache_decode.keys_head(h);
      for (std::size_t i = 0; i < kg.size(); ++i) {
        EXPECT_NEAR(kg[i], kd[i], 1e-6F);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndModes, DecodeParity,
    ::testing::Values(
        ParityCase{PositionalKind::kRoPE, PositionMode::kOriginal},
        ParityCase{PositionalKind::kRoPE, PositionMode::kNew},
        ParityCase{PositionalKind::kALiBi, PositionMode::kOriginal},
        ParityCase{PositionalKind::kALiBi, PositionMode::kNew},
        ParityCase{PositionalKind::kLearned, PositionMode::kOriginal}),
    [](const auto& info) {
      return to_string(info.param.positional) + "_" +
             to_string(info.param.mode);
    });

TEST(Attention, RotateAtAppendMatchesRotateAtAttendBeforeEviction) {
  // Under RoPE, kOriginal stores keys rotated at append and kNew stores raw
  // keys rotated at attention time. On an uncompacted cache every slot
  // index equals its original position, so both contracts apply the same
  // rotations and must agree — through the general kernel (prompt) and the
  // decode kernel (each following step).
  const ModelConfig org = tiny_config(PositionalKind::kRoPE);
  ModelConfig newpos = org;
  newpos.position_mode = PositionMode::kNew;
  ASSERT_TRUE(keys_stored_rotated(org));
  ASSERT_FALSE(keys_stored_rotated(newpos));
  const ModelWeights w = build_weights(org);

  const auto expect_close = [](const AttentionResult& a,
                               const AttentionResult& b) {
    ASSERT_EQ(a.key_len, b.key_len);
    for (std::size_t i = 0; i < a.logits.size(); ++i) {
      const float la = a.logits.span()[i];
      const float lb = b.logits.span()[i];
      if (std::isfinite(la)) {
        EXPECT_NEAR(la, lb, 1e-5F) << "logit " << i;
      } else {
        EXPECT_EQ(la, lb) << "masked logit " << i;
      }
    }
    for (std::size_t i = 0; i < a.probs.size(); ++i) {
      EXPECT_NEAR(a.probs.span()[i], b.probs.span()[i], 1e-5F) << "prob " << i;
    }
    for (std::size_t i = 0; i < a.context.size(); ++i) {
      EXPECT_NEAR(a.context.span()[i], b.context.span()[i], 1e-5F)
          << "context " << i;
    }
  };

  kv::ContiguousKvCache rotated(org.n_heads, org.d_head());
  kv::ContiguousKvCache raw(org.n_heads, org.d_head());
  const Tensor x = random_rows(8, org.d_model, 51);
  expect_close(
      attention_forward_general(org, w.layers[0], x, iota_positions(8),
                                rotated),
      attention_forward_general(newpos, w.layers[0], x, iota_positions(8),
                                raw));
  for (std::size_t pos = 8; pos < 11; ++pos) {
    const Tensor q = random_rows(1, org.d_model, 52 + pos);
    SCOPED_TRACE(pos);
    expect_close(decode_one(org, w.layers[0], q, pos, rotated),
                 decode_one(newpos, w.layers[0], q, pos, raw));
  }
}

TEST(Attention, RopeKeysStoredPreRotatedUnderOriginalMode) {
  // Under RoPE + kOriginal the cache must hold *rotated* keys (append-time
  // rotation): reading a cached key head and comparing against manually
  // rotating the unrotated projection must match.
  ModelConfig cfg = tiny_config(PositionalKind::kRoPE);
  ASSERT_TRUE(keys_stored_rotated(cfg));
  ModelConfig newpos = cfg;
  newpos.position_mode = PositionMode::kNew;
  ASSERT_FALSE(keys_stored_rotated(newpos));
  const ModelWeights w = build_weights(cfg);

  Tensor x = random_rows(3, cfg.d_model, 41);
  kv::ContiguousKvCache rotated(cfg.n_heads, cfg.d_head());
  attention_forward_general(cfg, w.layers[0], x, iota_positions(3), rotated);
  kv::ContiguousKvCache raw(cfg.n_heads, cfg.d_head());
  attention_forward_general(newpos, w.layers[0], x, iota_positions(3), raw);

  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      std::vector<float> expect(raw.key_head(i, h).begin(),
                                raw.key_head(i, h).end());
      rope_rotate(expect, i, cfg.rope_base);
      const auto got = rotated.key_head(i, h);
      for (std::size_t j = 0; j < expect.size(); ++j) {
        EXPECT_NEAR(got[j], expect[j], 1e-6F);
      }
    }
  }
}

TEST(Attention, ContextShapeAndFiniteness) {
  const ModelConfig cfg = tiny_config();
  const ModelWeights w = build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  Tensor x = random_rows(5, cfg.d_model, 15);
  const AttentionResult r =
      attention_forward_general(cfg, w.layers[0], x, iota_positions(5), cache);
  EXPECT_EQ(r.context.dim(0), 5u);
  EXPECT_EQ(r.context.dim(1), cfg.d_model);
  for (const float v : r.context.span()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace kf::model
