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

/// A one-layer state whose cache is pre-filled with `len` tokens through
/// one prompt chunk (the same appends a prefill performs). Equal seeds
/// give bit-identical caches.
kv::SequenceKvState filled_cache(const ModelConfig& cfg,
                                 const ModelWeights& w, std::size_t len,
                                 std::uint64_t seed) {
  kv::SequenceKvState state(1, cfg.n_heads, cfg.d_head());
  Tensor x = random_rows(len, cfg.d_model, seed);
  std::vector<std::size_t> positions(len);
  for (std::size_t i = 0; i < len; ++i) positions[i] = i;
  const AttentionRun run{positions, &state.layer(0)};
  self_attention(cfg, w.layers[0], w.rope, x, {&run, 1}, Phase::kPrompt,
                 Internals::kDrop);
  return state;
}

class BatchDecodeParity : public ::testing::TestWithParam<PositionalKind> {};

TEST_P(BatchDecodeParity, MatchesSingleSequenceDecodePerSlot) {
  const ModelConfig cfg = tiny_config(GetParam());
  const Transformer m(cfg);
  const ModelWeights& w = m.weights();

  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kPrefill = 10;

  // Each slot is an independent sequence: its own cache history (different
  // seeds) and its own new-token row.
  std::vector<kv::SequenceKvState> single_states;
  std::vector<kv::SequenceKvState> batch_states;
  std::vector<kv::KvCache*> single_caches;
  std::vector<kv::KvCache*> batch_caches;
  for (std::size_t b = 0; b < kBatch; ++b) {
    single_states.push_back(filled_cache(cfg, w, kPrefill, 100 + b));
    batch_states.push_back(filled_cache(cfg, w, kPrefill, 100 + b));
  }
  for (std::size_t b = 0; b < kBatch; ++b) {
    single_caches.push_back(&single_states[b].layer(0));
    batch_caches.push_back(&batch_states[b].layer(0));
  }
  const Tensor xq = random_rows(kBatch, cfg.d_model, 7);
  const std::vector<std::size_t> positions(kBatch, kPrefill);

  // Reference: B separate one-row calls.
  std::vector<AttentionResult> expected;
  for (std::size_t b = 0; b < kBatch; ++b) {
    Tensor row({1, cfg.d_model});
    for (std::size_t j = 0; j < cfg.d_model; ++j) row.row(0)[j] = xq.row(b)[j];
    const AttentionRun run{{&positions[b], 1}, single_caches[b]};
    expected.push_back(std::move(
        self_attention(cfg, w.layers[0], w.rope, row, {&run, 1},
                       Phase::kDecode, Internals::kKeep)
            .front()));
  }

  // Batched: one call over B one-row runs.
  std::vector<AttentionRun> runs(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    runs[b] = {{&positions[b], 1}, batch_caches[b]};
  }
  const auto results = self_attention(cfg, w.layers[0], w.rope, xq, runs,
                                      Phase::kDecode, Internals::kKeep);

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
    ASSERT_EQ(batch_caches[b]->size(), single_caches[b]->size());
    const std::size_t last = batch_caches[b]->size() - 1;
    const auto kb = batch_caches[b]->key_row(last);
    const auto ks = single_caches[b]->key_row(last);
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
  const ModelWeights& w = m.weights();

  const Tensor s_query = random_rows(1, cfg.d_model, 3);
  const auto run_in_batch = [&](std::size_t batch, std::size_t s_slot) {
    std::vector<kv::SequenceKvState> caches;
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
    std::vector<std::size_t> positions(batch);
    std::vector<AttentionRun> runs(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      positions[b] = b == s_slot ? std::size_t{12} : 6 + batch + b;
      runs[b] = {{&positions[b], 1}, &caches[b].layer(0)};
    }
    auto results = self_attention(cfg, w.layers[0], w.rope, xq, runs,
                                  Phase::kDecode, Internals::kKeep);
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

TEST_P(BatchDecodeParity, PromptChunkAndDecodeRowsShareOneCall) {
  // One call may mix runs of any length: a 5-row prompt chunk between two
  // one-row decode runs. Each run's result and appended cache rows must
  // equal that run's own call bit for bit, in both position modes.
  for (const PositionMode mode :
       {PositionMode::kOriginal, PositionMode::kNew}) {
    SCOPED_TRACE(to_string(mode));
    ModelConfig cfg = tiny_config(GetParam());
    cfg.position_mode = mode;
    const Transformer m(cfg);
    const ModelWeights& w = m.weights();

    const std::vector<std::size_t> cached = {6, 10, 8};
    const std::vector<std::size_t> rows = {1, 5, 1};
    std::vector<kv::SequenceKvState> solo_caches;
    std::vector<kv::SequenceKvState> mixed_caches;
    std::vector<std::vector<std::size_t>> positions(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      solo_caches.push_back(filled_cache(cfg, w, cached[r], 200 + r));
      mixed_caches.push_back(filled_cache(cfg, w, cached[r], 200 + r));
      for (std::size_t i = 0; i < rows[r]; ++i) {
        positions[r].push_back(cached[r] + i);
      }
    }
    const Tensor x = random_rows(7, cfg.d_model, 9);

    // Reference: each run in its own call.
    std::vector<AttentionResult> expected;
    std::size_t row0 = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      Tensor xr({rows[r], cfg.d_model});
      for (std::size_t i = 0; i < rows[r]; ++i) {
        for (std::size_t j = 0; j < cfg.d_model; ++j) {
          xr.row(i)[j] = x.row(row0 + i)[j];
        }
      }
      row0 += rows[r];
      const AttentionRun run{positions[r], &solo_caches[r].layer(0)};
      expected.push_back(std::move(
          self_attention(cfg, w.layers[0], w.rope, xr, {&run, 1},
                         Phase::kPrompt, Internals::kKeep)
              .front()));
    }

    // Mixed: all three runs in one call.
    std::vector<AttentionRun> runs(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      runs[r] = {positions[r], &mixed_caches[r].layer(0)};
    }
    const auto results = self_attention(cfg, w.layers[0], w.rope, x, runs,
                                        Phase::kDecode, Internals::kKeep);

    ASSERT_EQ(results.size(), rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(results[r].n_q, rows[r]) << "run " << r;
      ASSERT_EQ(results[r].key_len, expected[r].key_len) << "run " << r;
      for (std::size_t i = 0; i < expected[r].logits.size(); ++i) {
        EXPECT_EQ(results[r].logits.span()[i], expected[r].logits.span()[i])
            << "run " << r << " logit " << i;
        EXPECT_EQ(results[r].probs.span()[i], expected[r].probs.span()[i])
            << "run " << r << " prob " << i;
      }
      for (std::size_t i = 0; i < expected[r].context.size(); ++i) {
        EXPECT_EQ(results[r].context.span()[i], expected[r].context.span()[i])
            << "run " << r << " ctx " << i;
      }
      const kv::KvCache& mixed = mixed_caches[r].layer(0);
      const kv::KvCache& solo = solo_caches[r].layer(0);
      ASSERT_EQ(mixed.size(), solo.size());
      for (std::size_t i = cached[r]; i < mixed.size(); ++i) {
        const auto km = mixed.key_row(i);
        const auto ks = solo.key_row(i);
        for (std::size_t j = 0; j < km.size(); ++j) {
          EXPECT_EQ(km[j], ks[j]) << "run " << r << " key " << i;
        }
      }
    }
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
