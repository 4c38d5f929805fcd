// Engine-level prefix-cache acceptance suite:
//   - shared-prefix decode is bit-exact vs unshared (prefix cache on vs
//     off produces token-for-token identical outputs) across eviction
//     policies and positional families, and for Gaussian Keyformer noise;
//   - configurations whose scores do not decompose at the prefix boundary
//     (damping, shared-scope Keyformer) are refused;
//   - randomized churn leaks nothing: after every run the only blocks off
//     the free lists are the index's retained chains, and clearing the
//     cache returns the pool to zero used / zero reserved (used == 0 is
//     equivalent to refcount 0 on every block — the pool counts a block
//     as used exactly while its refcount is nonzero);
//   - a few-shot-style burst of 8 requests sharing one context skips more
//     than half of all prefill tokens;
//   - Keyformer adopters of one long prefix hold it shared to the end:
//     eviction drops shared rows without copying a block, so the pool
//     peak is the chain plus each adopter's own suffix and generated rows.
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "kvcache/policy_factory.h"

namespace kf::serve {
namespace {

using model::GenerationConfig;
using model::ModelConfig;
using model::PositionalKind;
using model::Token;
using model::Transformer;

ModelConfig tiny_config(PositionalKind pos = PositionalKind::kRoPE) {
  ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 512;
  cfg.positional = pos;
  return cfg;
}

std::vector<Token> make_tokens(std::size_t n, std::uint64_t seed) {
  std::vector<Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Token>((i * 13 + 5 + seed * 11) % 64);
  }
  return p;
}

/// `n` requests sharing one `ctx_len`-token context, each with a unique
/// tail, arrivals staggered by `stagger` engine steps.
std::vector<Request> shared_context_requests(std::size_t n,
                                             std::size_t ctx_len,
                                             std::size_t stagger = 0) {
  const std::vector<Token> ctx = make_tokens(ctx_len, 7);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < n; ++i) {
    Request req;
    req.id = i;
    req.prompt = ctx;
    const auto tail = make_tokens(8 + (i % 3) * 4, 100 + i);
    req.prompt.insert(req.prompt.end(), tail.begin(), tail.end());
    req.gen.max_new_tokens = 6 + (i % 4);
    req.gen.cache_ratio = 0.5;
    req.arrival_step = i * stagger;
    req.shared_prefix_hint = ctx_len;
    requests.push_back(std::move(req));
  }
  return requests;
}

EngineConfig paged_config(kv::PolicyKind kind, bool prefix_on) {
  EngineConfig ec;
  ec.policy.kind = kind;
  ec.scheduler.max_batch_size = 4;
  ec.paged.block_tokens = 8;
  ec.prefix.enabled = prefix_on;
  return ec;
}

/// Runs staggered shared-context requests through `ec` with the prefix
/// cache off and on, and expects identical tokens with the cache engaged.
void expect_prefix_parity(PositionalKind pos, EngineConfig ec) {
  Transformer model(tiny_config(pos));
  const auto requests = shared_context_requests(/*n=*/5, /*ctx_len=*/48,
                                                /*stagger=*/2);

  ec.prefix.enabled = false;
  Engine off(model, ec);
  const auto expected = off.run(requests);

  ec.prefix.enabled = true;
  Engine on(model, ec);
  const auto got = on.run(requests);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tokens, expected[i].tokens) << "req " << i;
  }
  // The cache actually engaged: every request after the first found the
  // context (it was inserted by the first prefill of the run).
  EXPECT_GE(on.stats().prefix_hits, 1u);
  EXPECT_GT(on.stats().prefix_tokens_reused, 0u);
  EXPECT_GT(on.stats().prefix_blocks_shared, 0u);
}

class PrefixParity
    : public ::testing::TestWithParam<
          std::tuple<PositionalKind, kv::PolicyKind>> {};

TEST_P(PrefixParity, SharedPrefixDecodeIsBitExactVsUnshared) {
  const auto [pos, kind] = GetParam();
  expect_prefix_parity(pos, paged_config(kind, /*prefix_on=*/true));
}

TEST(PrefixSharing, GaussianKeyformerDecodeIsBitExactVsUnshared) {
  // An entry carries each head's noise row. With Gaussian draws as with
  // the default Gumbel ones, the adopted rows must equal what an unshared
  // prefill draws.
  EngineConfig ec = paged_config(kv::PolicyKind::kKeyformer, true);
  ec.policy.keyformer.score.adjustment = kv::LogitAdjustment::kGaussian;
  for (const auto pos : {PositionalKind::kRoPE, PositionalKind::kALiBi,
                         PositionalKind::kLearned}) {
    SCOPED_TRACE(to_string(pos));
    expect_prefix_parity(pos, ec);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesFamilies, PrefixParity,
    ::testing::Combine(::testing::Values(PositionalKind::kRoPE,
                                         PositionalKind::kALiBi,
                                         PositionalKind::kLearned),
                       ::testing::Values(kv::PolicyKind::kFull,
                                         kv::PolicyKind::kWindow,
                                         kv::PolicyKind::kRandom,
                                         kv::PolicyKind::kStreamingLLM,
                                         kv::PolicyKind::kH2O,
                                         kv::PolicyKind::kKeyformer)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             kv::to_string(std::get<1>(info.param));
    });

TEST(PrefixSharing, CrossRunReuseStaysBitExact) {
  // The index outlives run(): a second identical run hits on every
  // eligible prompt (including the first) and still reproduces the same
  // tokens.
  Transformer model(tiny_config());
  Engine engine(model, paged_config(kv::PolicyKind::kKeyformer, true));
  const auto requests = shared_context_requests(4, 48);
  const auto first = engine.run(requests);
  EXPECT_GE(engine.stats().prefix_hits, 3u);  // all but the inserting one
  const auto second = engine.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(second[i].tokens, first[i].tokens) << "req " << i;
  }
  EXPECT_EQ(engine.stats().prefix_hits, 4u);   // now even the first hits
  EXPECT_EQ(engine.stats().prefix_misses, 0u);
}

TEST(PrefixSharing, EightWayBurstSkipsOverHalfThePrefillTokens) {
  // The acceptance bar: 8 requests sharing one few-shot-sized context
  // must skip >= 50% of all prefill tokens.
  Transformer model(tiny_config());
  const auto requests = shared_context_requests(/*n=*/8, /*ctx_len=*/96);
  std::size_t total_prompt = 0;
  for (const auto& r : requests) total_prompt += r.prompt.size();

  EngineConfig ec = paged_config(kv::PolicyKind::kKeyformer, true);
  ec.scheduler.max_batch_size = 8;
  Engine engine(model, ec);
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 8u);

  const auto& st = engine.stats();
  EXPECT_EQ(st.prefix_hits, 7u);
  EXPECT_EQ(st.prefix_misses, 1u);
  EXPECT_EQ(st.prefix_tokens_reused, 7u * 96u);
  EXPECT_EQ(st.prefilled_tokens + st.prefix_tokens_reused, total_prompt);
  EXPECT_GE(static_cast<double>(st.prefix_tokens_reused),
            0.5 * static_cast<double>(total_prompt));
  EXPECT_DOUBLE_EQ(st.prefix_hit_rate(), 7.0 / 8.0);
}

TEST(PrefixSharing, RandomizedChurnLeaksNoBlocksOrRefcounts) {
  // Randomized mixed workload (shared contexts of two lengths, unique
  // prompts, staggered arrivals, mixed generation lengths) over several
  // runs. After every run: zero reservations and zero used blocks beyond
  // the index's retained chains; after clearing the cache: a completely
  // empty pool — used == 0, reserved == 0, which the pool's accounting
  // makes equivalent to refcount 0 on every block.
  Transformer model(tiny_config());
  EngineConfig ec = paged_config(kv::PolicyKind::kKeyformer, true);
  ec.prefix.max_blocks = 48;
  Engine engine(model, ec);
  Rng rng(4242);

  for (std::size_t round = 0; round < 4; ++round) {
    std::vector<Request> requests;
    const std::vector<Token> ctx_a = make_tokens(40, 1);
    const std::vector<Token> ctx_b = make_tokens(24, 2);
    for (std::size_t i = 0; i < 7; ++i) {
      Request req;
      req.id = i;
      const std::uint64_t flavor = rng.uniform_u64(3);
      if (flavor == 0) {
        req.prompt = ctx_a;
        req.shared_prefix_hint = ctx_a.size();
      } else if (flavor == 1) {
        req.prompt = ctx_b;
        req.shared_prefix_hint = ctx_b.size();
      }
      const auto tail = make_tokens(6 + rng.uniform_u64(20), 50 + i);
      req.prompt.insert(req.prompt.end(), tail.begin(), tail.end());
      req.gen.max_new_tokens = 3 + rng.uniform_u64(8);
      req.gen.cache_ratio = 0.5;
      req.arrival_step = rng.uniform_u64(6);
      requests.push_back(std::move(req));
    }
    engine.run(requests);

    ASSERT_NE(engine.pool(), nullptr);
    ASSERT_NE(engine.prefix_index(), nullptr);
    const mem::PoolStats ps = engine.pool()->stats();
    const std::size_t held = engine.prefix_index()->blocks_held();
    EXPECT_EQ(ps.used_blocks, held) << "round " << round;
    EXPECT_EQ(ps.reserved_blocks, held) << "round " << round;
    EXPECT_LE(held, ec.prefix.max_blocks) << "round " << round;
  }

  engine.clear_prefix_cache();
  const mem::PoolStats ps = engine.pool()->stats();
  EXPECT_EQ(engine.prefix_index()->blocks_held(), 0u);
  EXPECT_EQ(ps.used_blocks, 0u);
  EXPECT_EQ(ps.reserved_blocks, 0u);
}

TEST(PrefixSharing, KeyformerAdoptersHoldOnlyTheirOwnRows) {
  // N Keyformer adopters of one long prefix evict most of it, yet it stays
  // shared: eviction drops a shared row without writing its block, so
  // each adopter's private blocks hold only its suffix and generated rows
  // (a copy-on-write cache would hold its whole kept budget privately,
  // about 14 blocks per layer here). The run's pool peak is at most the
  // chain plus those private footprints, and no block is copied.
  const ModelConfig cfg = tiny_config();
  Transformer model(cfg);
  const std::size_t n = 4;
  const std::size_t ctx = 192;
  EngineConfig ec = paged_config(kv::PolicyKind::kKeyformer, true);
  ec.scheduler.max_batch_size = n;
  const std::size_t bt = ec.paged.block_tokens;
  const auto requests = shared_context_requests(n, ctx);

  Engine engine(model, ec);
  engine.run({requests.data(), 1});  // warms the index with the prefix
  const std::size_t chain = engine.prefix_index()->blocks_held();
  ASSERT_EQ(chain, cfg.n_layers * ctx / bt);
  const auto got = engine.run(requests);
  const EngineStats& st = engine.stats();
  EXPECT_EQ(st.prefix_hits, n);
  EXPECT_GT(st.evicted_tokens, 0u);
  EXPECT_EQ(st.prefix_cow_copies, 0u);

  std::size_t own_blocks = 0;
  for (const Request& req : requests) {
    const std::size_t own = req.prompt.size() - ctx + req.gen.max_new_tokens;
    own_blocks += cfg.n_layers * ((own + bt - 1) / bt);
  }
  EXPECT_LE(st.pool_peak_used_blocks, chain + own_blocks);

  // Many short runs over a sparse shared region change no token.
  ec.prefix.enabled = false;
  Engine off(model, ec);
  const auto expected = off.run(requests);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].tokens, expected[i].tokens) << "req " << i;
  }
}

TEST(PrefixSharing, RequiresUndampedScores) {
  Transformer model(tiny_config());
  EngineConfig damped = paged_config(kv::PolicyKind::kKeyformer, true);
  damped.policy.keyformer.score.damping = 0.95;
  EXPECT_THROW(Engine(model, damped), std::invalid_argument);

  EngineConfig h2o = paged_config(kv::PolicyKind::kH2O, true);
  h2o.policy.h2o_damping = 0.9;
  EXPECT_THROW(Engine(model, h2o), std::invalid_argument);
}

TEST(PrefixSharing, RefusesSharedScopeKeyformer) {
  // Shared-scope ranking at layer l sums every layer observed so far, and
  // a prompt chunked at the prefix boundary has already added the prefix
  // rows' later layers, so shared-prefix decode would drift from
  // unshared.
  Transformer model(tiny_config());
  EngineConfig shared = paged_config(kv::PolicyKind::kKeyformer, true);
  shared.policy.keyformer.scope = kv::ScoreScope::kShared;
  EXPECT_THROW(Engine(model, shared), std::invalid_argument);
  shared.prefix.enabled = false;
  EXPECT_NO_THROW(Engine(model, shared));
}

TEST(PrefixSharing, StaggeredArrivalsNeverChargeMoreThanUnshared) {
  // With the cache on, later same-context arrivals charge at most their
  // unshared block demand, so the reservation high-water mark can only
  // drop (or stay) relative to the cache-off run of the same workload.
  Transformer model(tiny_config());
  const auto requests = shared_context_requests(6, 64, /*stagger=*/3);

  Engine off(model, paged_config(kv::PolicyKind::kKeyformer, false));
  off.run(requests);
  Engine on(model, paged_config(kv::PolicyKind::kKeyformer, true));
  on.run(requests);
  EXPECT_LE(on.stats().max_blocks_in_use, off.stats().max_blocks_in_use);
  EXPECT_GE(on.stats().prefix_hits, 1u);
}

}  // namespace
}  // namespace kf::serve
