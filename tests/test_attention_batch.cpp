#include "model/attention.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "model/transformer.h"

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

Tensor random_rows(std::size_t n, std::size_t d, std::uint64_t seed) {
  Tensor x({n, d});
  Rng rng(seed);
  for (float& v : x.span()) {
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return x;
}

/// A cache pre-filled with `len` tokens through the general path (the same
/// appends a prefill performs).
kv::ContiguousKvCache filled_cache(const ModelConfig& cfg,
                                   const LayerWeights& w, std::size_t len,
                                   std::uint64_t seed) {
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head());
  Tensor x = random_rows(len, cfg.d_model, seed);
  std::vector<std::size_t> positions(len);
  for (std::size_t i = 0; i < len; ++i) positions[i] = i;
  attention_forward_general(cfg, w, x, positions, cache);
  return cache;
}

class BatchDecodeParity : public ::testing::TestWithParam<PositionalKind> {};

TEST_P(BatchDecodeParity, MatchesSingleSequenceDecodePerSlot) {
  const ModelConfig cfg = tiny_config(GetParam());
  const Transformer m(cfg);
  const LayerWeights& w = m.weights().layers[0];

  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kPrefill = 10;

  // Each slot is an independent sequence: its own cache history (different
  // seeds) and its own new-token row.
  std::vector<kv::ContiguousKvCache> single_caches;
  std::vector<kv::ContiguousKvCache> batch_caches;
  for (std::size_t b = 0; b < kBatch; ++b) {
    single_caches.push_back(filled_cache(cfg, w, kPrefill, 100 + b));
    batch_caches.push_back(single_caches.back());  // identical clone
  }
  const Tensor xq = random_rows(kBatch, cfg.d_model, 7);

  // Reference: B separate one-slot calls.
  std::vector<AttentionResult> expected;
  for (std::size_t b = 0; b < kBatch; ++b) {
    Tensor row({1, cfg.d_model});
    for (std::size_t j = 0; j < cfg.d_model; ++j) row.row(0)[j] = xq.row(b)[j];
    const DecodeBatchSlot slot{kPrefill, &single_caches[b]};
    expected.push_back(
        std::move(attention_decode_batch(cfg, w, row, {&slot, 1}).front()));
  }

  // Batched: one B-slot call.
  std::vector<DecodeBatchSlot> slots(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    slots[b] = {kPrefill, &batch_caches[b]};
  }
  const auto results = attention_decode_batch(cfg, w, xq, slots);

  // Bit for bit: no arithmetic spans rows, so batching must not move a
  // single last digit of any slot's output or cache.
  ASSERT_EQ(results.size(), kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    ASSERT_EQ(results[b].key_len, expected[b].key_len) << "slot " << b;
    for (std::size_t i = 0; i < expected[b].logits.size(); ++i) {
      EXPECT_EQ(results[b].logits.span()[i], expected[b].logits.span()[i])
          << "slot " << b << " logit " << i;
    }
    for (std::size_t i = 0; i < expected[b].probs.size(); ++i) {
      EXPECT_EQ(results[b].probs.span()[i], expected[b].probs.span()[i])
          << "slot " << b << " prob " << i;
    }
    for (std::size_t i = 0; i < expected[b].context.size(); ++i) {
      EXPECT_EQ(results[b].context.span()[i], expected[b].context.span()[i])
          << "slot " << b << " ctx " << i;
    }
    // The caches must have evolved identically (same appended row).
    ASSERT_EQ(batch_caches[b].size(), single_caches[b].size());
    const std::size_t last = batch_caches[b].size() - 1;
    const auto kb = batch_caches[b].key_row(last);
    const auto ks = single_caches[b].key_row(last);
    for (std::size_t j = 0; j < kb.size(); ++j) {
      EXPECT_EQ(kb[j], ks[j]) << "slot " << b << " key " << j;
    }
  }
}

TEST_P(BatchDecodeParity, SlotResultIndependentOfBatchComposition) {
  // Sequence S decoded in a batch of 2 and in a batch of 5 (different
  // companions) must produce identical results: sequences never read each
  // other's caches, and every projection runs one row at a time.
  const ModelConfig cfg = tiny_config(GetParam());
  const Transformer m(cfg);
  const LayerWeights& w = m.weights().layers[0];

  const Tensor s_query = random_rows(1, cfg.d_model, 3);
  const auto run_in_batch = [&](std::size_t batch, std::size_t s_slot) {
    std::vector<kv::ContiguousKvCache> caches;
    for (std::size_t b = 0; b < batch; ++b) {
      // Slot s_slot is sequence S (seed 42); companions vary with batch.
      caches.push_back(
          filled_cache(cfg, w, b == s_slot ? 12 : 6 + batch + b,
                       b == s_slot ? 42 : 1000 * batch + b));
    }
    Tensor xq = random_rows(batch, cfg.d_model, 77 + batch);
    for (std::size_t j = 0; j < cfg.d_model; ++j) {
      xq.row(s_slot)[j] = s_query.row(0)[j];
    }
    std::vector<DecodeBatchSlot> slots(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      slots[b] = {b == s_slot ? std::size_t{12} : 6 + batch + b, &caches[b]};
    }
    auto results = attention_decode_batch(cfg, w, xq, slots);
    return std::move(results[s_slot]);
  };

  const AttentionResult a = run_in_batch(2, 0);
  const AttentionResult b = run_in_batch(5, 3);
  ASSERT_EQ(a.key_len, b.key_len);
  for (std::size_t i = 0; i < a.context.size(); ++i) {
    EXPECT_EQ(a.context.span()[i], b.context.span()[i]) << "ctx " << i;
  }
  for (std::size_t i = 0; i < a.logits.size(); ++i) {
    EXPECT_EQ(a.logits.span()[i], b.logits.span()[i]) << "logit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BatchDecodeParity,
                         ::testing::Values(PositionalKind::kRoPE,
                                           PositionalKind::kALiBi,
                                           PositionalKind::kLearned),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace kf::model
