#include "model/attention.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "attention_reference.h"
#include "core/rng.h"
#include "mem/block_pool.h"
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

/// An unbounded pool for cfg's K/V rows, of `block_tokens`-token blocks.
mem::BlockPool make_pool(const ModelConfig& cfg,
                         std::size_t block_tokens = 64) {
  mem::BlockPoolConfig pc;
  pc.block_tokens = block_tokens;
  pc.n_heads = cfg.n_heads;
  pc.d_head = cfg.d_head();
  return mem::BlockPool(pc);
}

std::vector<std::size_t> iota_positions(std::size_t n, std::size_t start = 0) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

/// One sequence's prompt chunk: a one-run self_attention call.
AttentionResult prompt_chunk(const ModelConfig& cfg, const ModelWeights& w,
                             const Tensor& x,
                             std::span<const std::size_t> positions,
                             kv::KvCache& cache) {
  const AttentionRun run{positions, &cache};
  return std::move(
      self_attention(cfg, w.layers[0], w.rope, x, {&run, 1}, Phase::kPrompt,
                     Internals::kKeep)
          .front());
}

/// One decode step of a single sequence: a one-row self_attention call.
AttentionResult decode_one(const ModelConfig& cfg, const ModelWeights& w,
                           const Tensor& x, std::size_t q_position,
                           kv::KvCache& cache) {
  const AttentionRun run{{&q_position, 1}, &cache};
  return std::move(
      self_attention(cfg, w.layers[0], w.rope, x, {&run, 1}, Phase::kDecode,
                     Internals::kKeep)
          .front());
}

class AttentionAllPositional
    : public ::testing::TestWithParam<PositionalKind> {};

TEST_P(AttentionAllPositional, ProbsRowsSumToOneAndCausal) {
  const ModelConfig cfg = tiny_config(GetParam());
  const ModelWeights w = build_weights(cfg);
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  const std::size_t n = 12;
  Tensor x = random_rows(n, cfg.d_model, 5);
  const auto positions = iota_positions(n);
  const AttentionResult r = prompt_chunk(cfg, w, x, positions, cache);

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
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  Tensor x = random_rows(4, cfg.d_model, 6);
  prompt_chunk(cfg, w, x, iota_positions(4), cache);
  EXPECT_EQ(cache.size(), 4u);
  Tensor y = random_rows(1, cfg.d_model, 7);
  decode_one(cfg, w, y, 4, cache);
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.original_position(4), 4u);
}

TEST(Attention, DecodeRowAttendsWholeCache) {
  const ModelConfig cfg = tiny_config();
  const ModelWeights w = build_weights(cfg);
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  Tensor x = random_rows(6, cfg.d_model, 8);
  prompt_chunk(cfg, w, x, iota_positions(6), cache);
  Tensor q = random_rows(1, cfg.d_model, 9);
  const AttentionResult r = decode_one(cfg, w, q, 6, cache);
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
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  Tensor x({3, cfg.d_model});
  Rng rng(10);
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  // Make row 2 equal to row 0.
  for (std::size_t j = 0; j < cfg.d_model; ++j) {
    x.at(2, j) = x.at(0, j);
  }
  const AttentionResult r =
      prompt_chunk(cfg, w, x, iota_positions(3), cache);
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
    auto pool = make_pool(cfg);
    kv::KvCache cache(pool);
    Tensor x = random_rows(8, cfg.d_model, 11);
    prompt_chunk(cfg, w, x, iota_positions(8), cache);
    // Evict tokens 1..4 — kept tokens now have index != original position.
    cache.compact(std::vector<std::size_t>{0, 5, 6, 7});
    Tensor q = random_rows(1, cfg.d_model, 12);
    return decode_one(cfg, w, q, 8, cache);
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
    auto pool = make_pool(cfg);
    kv::KvCache cache(pool);
    Tensor x = random_rows(6, cfg.d_model, 13);
    return prompt_chunk(cfg, w, x, iota_positions(6), cache);
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
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  // Identical token rows: content is symmetric, only ALiBi differentiates.
  Tensor x({24, cfg.d_model});
  Rng rng(14);
  std::vector<float> proto(cfg.d_model);
  for (auto& v : proto) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < cfg.d_model; ++j) x.at(i, j) = proto[j];
  }
  const AttentionResult r =
      prompt_chunk(cfg, w, x, iota_positions(24), cache);
  // Positional head = head 0 (steepest slope). Mass on the most recent
  // non-self key should exceed mass on the most distant key.
  const std::size_t q = 23;
  const float* row = r.probs.data() + (0 * 24 + q) * 24;
  EXPECT_GT(row[22], row[0]);
}

// ---------------------------------------------------------------------------
// Reference parity: prompt chunks and decode steps share one attend, so
// each is checked against the naive oracle in attention_reference.h for
// every positional family and both position modes, on compacted caches.
// ---------------------------------------------------------------------------

struct ParityCase {
  PositionalKind positional;
  PositionMode mode;
};

class DecodeParity : public ::testing::TestWithParam<ParityCase> {};

/// Checks `got` (the kernel's result for rows `x`, already appended to
/// `cache`) against the oracle: logits, probs and context within 1e-5,
/// every masked entry exactly -inf / 0, and the appended K/V rows.
void expect_matches_reference(const ModelConfig& cfg, const LayerWeights& w,
                              const Tensor& x,
                              std::span<const std::size_t> positions,
                              const kv::KvCache& cache,
                              const AttentionResult& got) {
  const AttentionResult want =
      reference::attend(cfg, w, x, positions, cache);
  ASSERT_EQ(got.n_q, want.n_q);
  ASSERT_EQ(got.key_len, want.key_len);
  for (std::size_t i = 0; i < want.logits.size(); ++i) {
    const float wl = want.logits.span()[i];
    if (std::isinf(wl)) {
      EXPECT_EQ(got.logits.span()[i], wl) << "masked logit " << i;
      EXPECT_EQ(got.probs.span()[i], 0.0F) << "masked prob " << i;
    } else {
      EXPECT_NEAR(got.logits.span()[i], wl, 1e-5F) << "logit " << i;
      EXPECT_NEAR(got.probs.span()[i], want.probs.span()[i], 1e-5F)
          << "prob " << i;
    }
  }
  for (std::size_t i = 0; i < want.context.size(); ++i) {
    EXPECT_NEAR(got.context.span()[i], want.context.span()[i], 1e-5F)
        << "context " << i;
  }
  const Tensor keys = reference::expected_keys(cfg, w, x, positions);
  const Tensor values = reference::project(x, w.wv);
  const std::size_t dh = cfg.d_head();
  const std::size_t first = cache.size() - x.dim(0);
  for (std::size_t r = 0; r < x.dim(0); ++r) {
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      const auto k = cache.key_head(first + r, h);
      const auto v = cache.value_head(first + r, h);
      for (std::size_t j = 0; j < dh; ++j) {
        EXPECT_NEAR(k[j], keys.at(r, h * dh + j), 1e-5F) << "key row " << r;
        EXPECT_NEAR(v[j], values.at(r, h * dh + j), 1e-5F)
            << "value row " << r;
      }
    }
  }
}

/// Ten prompt rows through the kernel, then a compaction that scatters
/// slot indices away from original positions (6 rows survive).
void prefill_and_compact(const ModelConfig& cfg, const ModelWeights& w,
                         kv::KvCache& cache) {
  const Tensor x = random_rows(10, cfg.d_model, 21);
  prompt_chunk(cfg, w, x, iota_positions(10), cache);
  cache.compact(std::vector<std::size_t>{0, 1, 5, 7, 8, 9});
}

TEST_P(DecodeParity, DecodeStepsMatchReference) {
  ModelConfig cfg = tiny_config(GetParam().positional);
  cfg.position_mode = GetParam().mode;
  const ModelWeights w = build_weights(cfg);
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  prefill_and_compact(cfg, w, cache);

  // Several decode steps so the parity covers growing caches too.
  for (std::size_t step = 0; step < 3; ++step) {
    SCOPED_TRACE(step);
    const Tensor q = random_rows(1, cfg.d_model, 22 + step);
    const std::size_t pos = 10 + step;
    const AttentionResult got = decode_one(cfg, w, q, pos, cache);
    expect_matches_reference(cfg, w.layers[0], q, iota_positions(1, pos),
                             cache, got);
  }
}

TEST_P(DecodeParity, PromptChunkMatchesReference) {
  ModelConfig cfg = tiny_config(GetParam().positional);
  cfg.position_mode = GetParam().mode;
  const ModelWeights w = build_weights(cfg);

  // A five-row chunk after the compaction sees prefixes of 7..11 rows. On
  // the paged cache's 4-token blocks every prefix but 8 ends mid-block.
  const auto run_chunk = [&](kv::KvCache& cache) {
    prefill_and_compact(cfg, w, cache);
    const Tensor x = random_rows(5, cfg.d_model, 31);
    const auto positions = iota_positions(5, 10);
    const AttentionResult got =
        prompt_chunk(cfg, w, x, positions, cache);
    expect_matches_reference(cfg, w.layers[0], x, positions, cache, got);
  };
  {
    SCOPED_TRACE("one block");
    auto pool = make_pool(cfg);
    kv::KvCache cache(pool);
    run_chunk(cache);
    ASSERT_EQ(cache.segment_count(), 1u);
  }
  {
    SCOPED_TRACE("4-token blocks");
    auto pool = make_pool(cfg, 4);
    kv::KvCache cache(pool);
    run_chunk(cache);
    ASSERT_EQ(cache.segment_count(), 3u);
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

TEST(Attention, DecodePastRopeTableMatchesFullTable) {
  // A 16-position table: the prompt's rotations read it, and decode steps
  // to position 40 cross its end into rope_rotate (under kNew after the
  // compaction, from slot 16 on). Every output and cached key must equal,
  // bit for bit, a run whose table covers every position; DecodeParity
  // checks that path against attention_reference.h.
  for (const PositionMode mode :
       {PositionMode::kOriginal, PositionMode::kNew}) {
    SCOPED_TRACE(to_string(mode));
    ModelConfig full = tiny_config(PositionalKind::kRoPE);
    full.position_mode = mode;
    ModelConfig short_table = full;
    short_table.max_seq_len = 16;
    const ModelWeights w_full = build_weights(full);
    const ModelWeights w_short = build_weights(short_table);
    ASSERT_EQ(w_short.rope.positions(), 16u);
    auto pool = make_pool(full, 4);
    kv::KvCache want_cache(pool);
    kv::KvCache got_cache(pool);
    prefill_and_compact(full, w_full, want_cache);
    prefill_and_compact(short_table, w_short, got_cache);
    for (std::size_t pos = 10; pos <= 40; ++pos) {
      SCOPED_TRACE(pos);
      const Tensor q = random_rows(1, full.d_model, 60 + pos);
      const AttentionResult want = decode_one(full, w_full, q, pos, want_cache);
      const AttentionResult got =
          decode_one(short_table, w_short, q, pos, got_cache);
      EXPECT_TRUE(std::ranges::equal(got.logits.span(), want.logits.span()));
      EXPECT_TRUE(std::ranges::equal(got.probs.span(), want.probs.span()));
      EXPECT_TRUE(
          std::ranges::equal(got.context.span(), want.context.span()));
    }
    ASSERT_EQ(got_cache.size(), want_cache.size());
    for (std::size_t i = 0; i < got_cache.size(); ++i) {
      for (std::size_t h = 0; h < full.n_heads; ++h) {
        EXPECT_TRUE(std::ranges::equal(got_cache.key_head(i, h),
                                       want_cache.key_head(i, h)))
            << "key row " << i << " head " << h;
      }
    }
  }
}

TEST(Attention, RotateAtAppendMatchesRotateAtAttendBeforeEviction) {
  // Under RoPE, kOriginal stores keys rotated at append and kNew stores raw
  // keys rotated at attention time. On an uncompacted cache every slot
  // index equals its original position, so both contracts apply the same
  // rotations and must agree — for a prompt chunk and for each decode step
  // that follows.
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

  auto pool = make_pool(org);
  kv::KvCache rotated(pool);
  kv::KvCache raw(pool);
  const Tensor x = random_rows(8, org.d_model, 51);
  expect_close(prompt_chunk(org, w, x, iota_positions(8), rotated),
               prompt_chunk(newpos, w, x, iota_positions(8), raw));
  for (std::size_t pos = 8; pos < 11; ++pos) {
    const Tensor q = random_rows(1, org.d_model, 52 + pos);
    SCOPED_TRACE(pos);
    expect_close(decode_one(org, w, q, pos, rotated),
                 decode_one(newpos, w, q, pos, raw));
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
  auto pool = make_pool(cfg);
  kv::KvCache rotated(pool);
  prompt_chunk(cfg, w, x, iota_positions(3), rotated);
  kv::KvCache raw(pool);
  prompt_chunk(newpos, w, x, iota_positions(3), raw);

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

TEST(Attention, DroppedTensorsLeaveContextsBitEqual) {
  // Without Internals::kKeep the attend writes each row into per-thread
  // scratch and returns no logit or probability tensor; a lone chunk
  // splits its heads across the pool. Contexts and cached rows must equal
  // the kept-tensor call's bit for bit, for a prompt chunk over a
  // compacted paged cache and for the decode steps after it.
  for (const ParityCase pc :
       {ParityCase{PositionalKind::kRoPE, PositionMode::kOriginal},
        ParityCase{PositionalKind::kRoPE, PositionMode::kNew},
        ParityCase{PositionalKind::kALiBi, PositionMode::kOriginal},
        ParityCase{PositionalKind::kLearned, PositionMode::kOriginal}}) {
    SCOPED_TRACE(to_string(pc.positional) + "_" + to_string(pc.mode));
    ModelConfig cfg = tiny_config(pc.positional);
    cfg.position_mode = pc.mode;
    cfg.n_heads = 4;
    const ModelWeights w = build_weights(cfg);
    auto pool = make_pool(cfg, 4);
    kv::KvCache kept_cache(pool);
    kv::KvCache dropped_cache(pool);
    const auto call = [&](const Tensor& x,
                          std::span<const std::size_t> positions,
                          Internals internals) {
      kv::KvCache& cache =
          internals == Internals::kKeep ? kept_cache : dropped_cache;
      const AttentionRun run{positions, &cache};
      const Phase phase =
          positions.size() > 1 ? Phase::kPrompt : Phase::kDecode;
      auto results = self_attention(cfg, w.layers[0], w.rope, x, {&run, 1},
                                    phase, internals);
      return std::move(results.front());
    };
    const auto expect_equal = [&](const Tensor& x,
                                  std::span<const std::size_t> positions) {
      const AttentionResult kept = call(x, positions, Internals::kKeep);
      const AttentionResult dropped = call(x, positions, Internals::kDrop);
      EXPECT_EQ(kept.probs.size(), cfg.n_heads * kept.n_q * kept.key_len);
      EXPECT_EQ(dropped.logits.size(), 0u);
      EXPECT_EQ(dropped.probs.size(), 0u);
      EXPECT_EQ(dropped.n_q, kept.n_q);
      EXPECT_EQ(dropped.key_len, kept.key_len);
      EXPECT_TRUE(
          std::ranges::equal(dropped.context.span(), kept.context.span()));
    };
    expect_equal(random_rows(10, cfg.d_model, 71), iota_positions(10));
    const std::vector<std::size_t> keep = {0, 1, 5, 7, 8, 9};
    kept_cache.compact(keep);
    dropped_cache.compact(keep);
    expect_equal(random_rows(6, cfg.d_model, 72), iota_positions(6, 10));
    for (std::size_t pos = 16; pos < 19; ++pos) {
      SCOPED_TRACE(pos);
      expect_equal(random_rows(1, cfg.d_model, 73 + pos),
                   iota_positions(1, pos));
    }
    ASSERT_EQ(dropped_cache.size(), kept_cache.size());
    for (std::size_t i = 0; i < kept_cache.size(); ++i) {
      EXPECT_EQ(dropped_cache.key_row(i), kept_cache.key_row(i)) << i;
      EXPECT_EQ(dropped_cache.value_row(i), kept_cache.value_row(i)) << i;
    }
  }
}

TEST(Attention, PromptChunkRowsMatchOneRowCalls) {
  // A prompt chunk attends its rows four at a time, then a remainder of one
  // to three. Every row must equal the same token attended alone, as a
  // one-row call after the rows before it: contexts, kept logits and
  // probabilities (masked past the row's prefix) and the cached K/V, bit
  // for bit. Chunks of 1 to 9 rows cover every remainder, over a cache of
  // 4-token blocks compacted to scattered slots, with d_head 32 so the key
  // groups and register-held context columns run their vector paths.
  for (const ParityCase pc :
       {ParityCase{PositionalKind::kRoPE, PositionMode::kOriginal},
        ParityCase{PositionalKind::kRoPE, PositionMode::kNew},
        ParityCase{PositionalKind::kALiBi, PositionMode::kOriginal},
        ParityCase{PositionalKind::kALiBi, PositionMode::kNew},
        ParityCase{PositionalKind::kLearned, PositionMode::kOriginal}}) {
    ModelConfig cfg = tiny_config(pc.positional);
    cfg.position_mode = pc.mode;
    cfg.d_model = 64;
    const ModelWeights w = build_weights(cfg);
    auto pool = make_pool(cfg, 4);
    for (std::size_t n = 1; n <= 9; ++n) {
      SCOPED_TRACE(to_string(pc.positional) + "_" + to_string(pc.mode) +
                   " rows " + std::to_string(n));
      // 40 prompt rows, compacted to 26 scattered slots.
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < 40; ++i) {
        if (i % 3 != 1) keep.push_back(i);
      }
      const Tensor prefix = random_rows(40, cfg.d_model, 81);
      const auto prefill = [&](kv::KvCache& cache) {
        prompt_chunk(cfg, w, prefix, iota_positions(40), cache);
        cache.compact(keep);
      };
      kv::KvCache chunk_cache(pool);
      kv::KvCache row_cache(pool);
      prefill(chunk_cache);
      prefill(row_cache);
      const Tensor x = random_rows(n, cfg.d_model, 82 + n);
      const auto positions = iota_positions(n, 40);
      const AttentionResult chunk =
          prompt_chunk(cfg, w, x, positions, chunk_cache);
      const std::size_t key_len = chunk.key_len;
      constexpr float kNegInf = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        Tensor xi({1, cfg.d_model});
        std::ranges::copy(x.row(i), xi.row(0).begin());
        const AttentionResult row =
            prompt_chunk(cfg, w, xi, {&positions[i], 1}, row_cache);
        const std::size_t vis = row.key_len;
        ASSERT_EQ(vis, key_len - n + i + 1);
        EXPECT_TRUE(
            std::ranges::equal(chunk.context.row(i), row.context.row(0)))
            << "context row " << i;
        for (std::size_t h = 0; h < cfg.n_heads; ++h) {
          const float* cl = chunk.logits.data() + (h * n + i) * key_len;
          const float* cp = chunk.probs.data() + (h * n + i) * key_len;
          const float* rl = row.logits.data() + h * vis;
          const float* rp = row.probs.data() + h * vis;
          for (std::size_t k = 0; k < key_len; ++k) {
            EXPECT_EQ(cl[k], k < vis ? rl[k] : kNegInf)
                << "head " << h << " row " << i << " logit " << k;
            EXPECT_EQ(cp[k], k < vis ? rp[k] : 0.0F)
                << "head " << h << " row " << i << " prob " << k;
          }
        }
      }
      ASSERT_EQ(row_cache.size(), chunk_cache.size());
      for (std::size_t s = 0; s < chunk_cache.size(); ++s) {
        for (std::size_t h = 0; h < cfg.n_heads; ++h) {
          EXPECT_TRUE(std::ranges::equal(chunk_cache.key_head(s, h),
                                         row_cache.key_head(s, h)))
              << "key slot " << s;
          EXPECT_TRUE(std::ranges::equal(chunk_cache.value_head(s, h),
                                         row_cache.value_head(s, h)))
              << "value slot " << s;
        }
      }
    }
  }
}

TEST(Attention, ContextShapeAndFiniteness) {
  const ModelConfig cfg = tiny_config();
  const ModelWeights w = build_weights(cfg);
  auto pool = make_pool(cfg);
  kv::KvCache cache(pool);
  Tensor x = random_rows(5, cfg.d_model, 15);
  const AttentionResult r =
      prompt_chunk(cfg, w, x, iota_positions(5), cache);
  EXPECT_EQ(r.context.dim(0), 5u);
  EXPECT_EQ(r.context.dim(1), cfg.d_model);
  for (const float v : r.context.span()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace kf::model
