#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/numerics.h"
#include "core/rng.h"
#include "cpu/cpu_isa.h"
#include "kvcache/kv_state.h"
#include "kvcache/policies/full.h"
#include "kvcache/policies/h2o.h"
#include "kvcache/policies/key_attention.h"
#include "kvcache/policies/keyformer.h"
#include "kvcache/policies/random_evict.h"
#include "kvcache/policies/streaming_llm.h"
#include "kvcache/policies/window.h"
#include "kvcache/policy.h"
#include "kvcache/policy_factory.h"
#include "model/transformer.h"
#include "score_reference.h"

namespace kf::kv {
namespace {

/// Drives `policy` through one layer's attention call the way the attend
/// does: begin_attend, then observe_row for every (head, query row) in
/// order over the row's visible prefix, then observe. `logits` and `probs`
/// hold the call's `n_queries` rows per head over the whole cache, layout
/// [head][query][key]; the queries are the cache's newest rows, so row q
/// sees keys [0, key_len - n_queries + q + 1).
void observe_call(EvictionPolicy& policy, const PolicyContext& ctx,
                  std::size_t n_queries, std::span<const float> logits,
                  std::span<const float> probs) {
  KvCache& cache = *ctx.cache;
  const std::size_t key_len = cache.size();
  ASSERT_LE(n_queries, key_len);
  ASSERT_GE(logits.size(), cache.n_heads() * n_queries * key_len);
  ASSERT_GE(probs.size(), logits.size());
  policy.begin_attend(ctx);
  for (std::size_t h = 0; h < cache.n_heads(); ++h) {
    for (std::size_t q = 0; q < n_queries; ++q) {
      const std::size_t row = (h * n_queries + q) * key_len;
      const std::size_t vis = key_len - n_queries + q + 1;
      policy.observe_row(cache, h, logits.subspan(row, vis),
                         probs.subspan(row, vis));
    }
  }
  policy.observe(ctx);
}

/// Test fixture state: a cache of `n` tokens plus one decode-style
/// attention snapshot (one query row per head) with configurable "hot"
/// positions that receive high logits.
struct Scenario {
  static constexpr std::size_t kHeads = 2;
  static constexpr std::size_t kDHead = 2;

  SequenceKvState state{1, kHeads, kDHead};
  KvCache& cache = state.layer(0);
  std::vector<float> logits;
  std::vector<float> probs;

  explicit Scenario(std::size_t n, std::vector<std::size_t> hot = {}) {
    std::vector<float> row(kHeads * kDHead, 0.0F);
    for (std::size_t i = 0; i < n; ++i) {
      row[0] = static_cast<float>(i);
      cache.append(row, row, i);
    }
    logits.assign(kHeads * n, 0.0F);
    probs.assign(kHeads * n, 0.0F);
    for (std::size_t h = 0; h < kHeads; ++h) {
      for (const std::size_t p : hot) {
        logits[h * n + p] = 4.0F;
      }
      softmax({logits.data() + h * n, n}, {probs.data() + h * n, n});
    }
  }

  PolicyContext ctx(std::size_t decode_step = 1) {
    PolicyContext c;
    c.layer = 0;
    c.decode_step = decode_step;
    c.cache = &cache;
    return c;
  }

  /// One decode-style call over the snapshot (observe_call).
  void observe(EvictionPolicy& policy) {
    observe_call(policy, ctx(), 1, logits, probs);
  }
};

/// T defaults to 8 steps; a policy reads it from here, never from a
/// PolicyContext.
SequenceInfo seq_info(std::size_t prompt_len, std::size_t steps = 8) {
  SequenceInfo s;
  s.prompt_len = prompt_len;
  s.total_steps = steps;
  return s;
}

// ---------------------------------------------------------------- budgets

TEST(MakeBudget, FullWhenRatioOutOfRange) {
  EXPECT_EQ(make_budget(100, 1.0).max_tokens, 0u);
  EXPECT_EQ(make_budget(100, 0.0).max_tokens, 0u);
  EXPECT_EQ(make_budget(100, 1.5).max_tokens, 0u);
}

TEST(MakeBudget, RatioAndRecentWindow) {
  const CacheBudget b = make_budget(100, 0.5, 0.3);
  EXPECT_EQ(b.max_tokens, 50u);
  EXPECT_EQ(b.recent_window, 15u);
}

TEST(MakeBudget, FlooredAtFour) {
  const CacheBudget b = make_budget(10, 0.1);
  EXPECT_EQ(b.max_tokens, 4u);
  EXPECT_GE(b.recent_window, 1u);
  EXPECT_LT(b.recent_window, b.max_tokens);
}

TEST(MakeBudget, NeverExceedsPrompt) {
  const CacheBudget b = make_budget(3, 0.9);
  EXPECT_LE(b.max_tokens, 3u);
}

// ------------------------------------------------------- selection helper

TEST(KeepTopK, SelectsHighestWithRecentSuffix) {
  const std::vector<double> scores{5.0, 1.0, 3.0, 2.0};
  const auto keep = keep_topk_plus_recent(scores, 6, 4, 2);
  // Top-2 of prefix {0,2} plus suffix {4,5}.
  EXPECT_EQ(keep, (std::vector<std::size_t>{0, 2, 4, 5}));
}

TEST(KeepTopK, TieBreakPrefersLowerIndex) {
  const std::vector<double> scores{1.0, 1.0, 1.0};
  const auto keep = keep_topk_plus_recent(scores, 3, 3, 2);
  EXPECT_EQ(keep, (std::vector<std::size_t>{0, 1}));
}

TEST(KeepTopK, ClampsKeepCount) {
  const std::vector<double> scores{1.0, 2.0};
  const auto keep = keep_topk_plus_recent(scores, 2, 2, 10);
  EXPECT_EQ(keep.size(), 2u);
}

TEST(KeepTopK, OutputSortedAscending) {
  const std::vector<double> scores{0.1, 9.0, 0.2, 8.0, 0.3};
  const auto keep = keep_topk_plus_recent(scores, 7, 5, 3);
  EXPECT_TRUE(std::is_sorted(keep.begin(), keep.end()));
}

TEST(KeepTopK, MatchesPartialSortReference) {
  // Tie-heavy integer scores against the partial_sort selection: one
  // prefix token leaving (the arg-min path), none, all, and random keeps
  // (the nth_element path), with and without a recent suffix.
  Rng rng(31);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform_u64(80);
    const std::size_t prefix = rng.uniform_u64(n + 1);
    std::vector<double> scores(n);
    for (double& v : scores) v = static_cast<double>(rng.uniform_u64(5));
    std::vector<std::size_t> keeps = {0, prefix, prefix + 1 + trial % 3,
                                      rng.uniform_u64(prefix + 1)};
    if (prefix > 0) keeps.push_back(prefix - 1);
    for (const std::size_t keep : keeps) {
      EXPECT_EQ(keep_topk_plus_recent(scores, n, prefix, keep),
                reference::keep_topk_plus_recent(scores, n, prefix, keep))
          << "n=" << n << " prefix=" << prefix << " keep=" << keep;
    }
  }
}

// ----------------------------------------------------------------- full

TEST(FullPolicy, NeverEvicts) {
  Scenario s(32);
  FullAttentionPolicy policy;
  policy.set_budget(CacheBudget{});  // unlimited
  policy.begin_sequence(seq_info(32));
  s.observe(policy);
  EXPECT_EQ(s.cache.size(), 32u);
}

// --------------------------------------------------------------- window

TEST(WindowPolicy, KeepsMostRecentTokens) {
  Scenario s(20);
  WindowPolicy policy;
  policy.set_budget(make_budget(20, 0.5));
  policy.begin_sequence(seq_info(20));
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 10u);
  EXPECT_EQ(s.cache.original_position(0), 10u);
  EXPECT_EQ(s.cache.original_position(9), 19u);
}

TEST(WindowPolicy, NoOpUnderBudget) {
  Scenario s(4);
  WindowPolicy policy;
  policy.set_budget(make_budget(20, 0.5));
  s.observe(policy);
  EXPECT_EQ(s.cache.size(), 4u);
}

TEST(WindowPolicy, DilatedPatternStride2) {
  Scenario s(10);
  WindowPolicy policy(/*dilation=*/1);
  CacheBudget b;
  b.max_tokens = 4;
  b.recent_window = 1;
  policy.set_budget(b);
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 4u);
  // Walk back from 9 with stride 2: 9, 7, 5, 3.
  EXPECT_EQ(s.cache.original_position(0), 3u);
  EXPECT_EQ(s.cache.original_position(1), 5u);
  EXPECT_EQ(s.cache.original_position(2), 7u);
  EXPECT_EQ(s.cache.original_position(3), 9u);
}

TEST(WindowPolicy, DilatedFillsWhenWalkRunsOut) {
  Scenario s(5);
  WindowPolicy policy(/*dilation=*/3);
  CacheBudget b;
  b.max_tokens = 4;
  b.recent_window = 1;
  policy.set_budget(b);
  s.observe(policy);
  EXPECT_EQ(s.cache.size(), 4u);
}

// ---------------------------------------------------------- streaming llm

TEST(StreamingLlm, KeepsSinksAndRecent) {
  Scenario s(30);
  StreamingLlmPolicy policy(4);
  CacheBudget b;
  b.max_tokens = 10;
  b.recent_window = 6;
  policy.set_budget(b);
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 10u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.cache.original_position(i), i);
  }
  EXPECT_EQ(s.cache.original_position(9), 29u);
}

TEST(StreamingLlm, SinksSurviveRepeatedEviction) {
  Scenario s(30);
  StreamingLlmPolicy policy(4);
  CacheBudget b;
  b.max_tokens = 8;
  policy.set_budget(b);
  s.observe(policy);
  // Append more tokens and evict again.
  std::vector<float> row(Scenario::kHeads * Scenario::kDHead, 0.0F);
  for (std::size_t p = 30; p < 35; ++p) s.cache.append(row, row, p);
  // The snapshot's rows are stale (sized for 30 keys) but StreamingLLM
  // ignores them.
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.cache.original_position(i), i);
  }
  EXPECT_EQ(s.cache.original_position(7), 34u);
}

// ----------------------------------------------------------------- random

TEST(RandomEvict, RespectsBudgetAndRecentWindow) {
  Scenario s(40);
  RandomEvictPolicy policy(7);
  policy.set_budget(make_budget(40, 0.5, 0.25));
  policy.begin_sequence(seq_info(40));
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 20u);
  // Last 5 (recent window) must be the trailing original positions.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s.cache.original_position(19 - i), 39 - i);
  }
}

TEST(RandomEvict, DeterministicPerSeed) {
  Scenario a(40), b(40), c(40);
  RandomEvictPolicy p1(7), p2(7), p3(8);
  for (auto* p : {&p1, &p2, &p3}) {
    p->set_budget(make_budget(40, 0.5));
    p->begin_sequence(seq_info(40));
  }
  a.observe(p1);
  b.observe(p2);
  c.observe(p3);
  std::vector<std::size_t> pa(a.cache.original_positions().begin(),
                              a.cache.original_positions().end());
  std::vector<std::size_t> pb(b.cache.original_positions().begin(),
                              b.cache.original_positions().end());
  std::vector<std::size_t> pc(c.cache.original_positions().begin(),
                              c.cache.original_positions().end());
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
}

// -------------------------------------------------------------------- h2o

TEST(H2O, AccumulatesAttentionProbs) {
  Scenario s(8, /*hot=*/{2});
  H2OPolicy policy;
  policy.set_budget(CacheBudget{});  // no eviction yet
  s.observe(policy);
  EXPECT_GT(s.cache.total_score(2), s.cache.total_score(3));
}

TEST(H2O, KeepsHeavyHitterPlusRecent) {
  Scenario s(20, /*hot=*/{3});
  H2OPolicy policy;
  CacheBudget b;
  b.max_tokens = 6;
  b.recent_window = 4;
  policy.set_budget(b);
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 6u);
  // The heavy hitter survives outside the recent window.
  const auto pos = s.cache.original_positions();
  EXPECT_NE(std::find(pos.begin(), pos.end(), 3u), pos.end());
  // Recent 4 kept.
  EXPECT_EQ(s.cache.original_position(5), 19u);
  EXPECT_EQ(s.cache.original_position(2), 16u);
}

TEST(H2O, RejectsBadDamping) {
  EXPECT_THROW(H2OPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(H2OPolicy(1.2), std::invalid_argument);
}

TEST(H2O, DampingDecaysOldScores) {
  Scenario s(8, {1});
  H2OPolicy damped(0.5);
  damped.set_budget(CacheBudget{});
  s.observe(damped);
  const double first = s.cache.total_score(1);
  // Second observation: old score halves before the new increment lands.
  s.observe(damped);
  const double second = s.cache.total_score(1);
  EXPECT_LT(second, 2.0 * first);
  EXPECT_NEAR(second, 1.5 * first, 1e-9);
}

// ----------------------------------------------------------- key attention

TEST(KeyAttention, PureTopKNoRecentGuarantee) {
  Scenario s(20, /*hot=*/{0, 1, 2, 3, 4, 5});
  KeyAttentionPolicy policy;
  CacheBudget b;
  b.max_tokens = 6;
  b.recent_window = 3;  // ignored by key attention
  policy.set_budget(b);
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 6u);
  // All kept tokens are the hot ones; the most recent token is gone.
  EXPECT_EQ(s.cache.original_position(5), 5u);
}

TEST(KeyAttention, PromptChunkScoresMatchFullRowSum) {
  // H2O and Key Attention add each query row's probabilities to the
  // scores. In a multi-row prompt chunk, row q sees the first
  // key_len - n_queries + q + 1 keys and its masked tail holds exact
  // zeros, so through a chunk and a decode row after it the scores equal
  // the sum of the full probability rows, bit for bit.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr std::size_t kHeads = Scenario::kHeads;
  H2OPolicy h2o;
  KeyAttentionPolicy key_attention;
  EvictionPolicy* const policies[] = {&h2o, &key_attention};
  for (EvictionPolicy* policy : policies) {
    Scenario s(12);
    policy->set_budget(CacheBudget{});
    Rng rng(33);
    std::vector<std::vector<double>> expected(kHeads);

    const auto observe_rows = [&](std::size_t n_queries) {
      const std::size_t key_len = s.cache.size();
      std::vector<float> logits(kHeads * n_queries * key_len);
      std::vector<float> probs(logits.size());
      for (std::size_t h = 0; h < kHeads; ++h) {
        expected[h].resize(key_len, 0.0);
        for (std::size_t q = 0; q < n_queries; ++q) {
          const std::size_t vis = key_len - n_queries + q + 1;
          float* lrow = logits.data() + (h * n_queries + q) * key_len;
          float* prow = probs.data() + (h * n_queries + q) * key_len;
          for (std::size_t i = 0; i < key_len; ++i) {
            lrow[i] = i < vis ? static_cast<float>(2.0 * rng.normal()) : -kInf;
          }
          softmax({lrow, key_len}, {prow, key_len});
          for (std::size_t i = 0; i < key_len; ++i) expected[h][i] += prow[i];
        }
      }
      observe_call(*policy, s.ctx(n_queries > 1 ? 0 : 1), n_queries, logits,
                   probs);
    };
    observe_rows(5);
    std::vector<float> row(kHeads * Scenario::kDHead, 0.0F);
    s.cache.append(row, row, 12);
    observe_rows(1);

    for (std::size_t h = 0; h < kHeads; ++h) {
      const auto scores = s.cache.scores(h);
      ASSERT_EQ(scores.size(), expected[h].size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i], expected[h][i])
            << policy->name() << " head " << h << " key " << i;
      }
    }
  }
}

// -------------------------------------------------------------- keyformer

KeyformerConfig quiet_keyformer() {
  KeyformerConfig cfg;
  cfg.score.noise_scale = 0.0;
  cfg.score.temperature.dynamic = false;
  return cfg;
}

TEST(Keyformer, BudgetRespectedAndRecentKept) {
  Scenario s(24, {5});
  KeyformerPolicy policy;
  CacheBudget b;
  b.max_tokens = 8;
  b.recent_window = 3;
  policy.set_budget(b);
  policy.begin_sequence(seq_info(24));
  s.observe(policy);
  ASSERT_EQ(s.cache.size(), 8u);
  EXPECT_EQ(s.cache.original_position(7), 23u);
  EXPECT_EQ(s.cache.original_position(5), 21u);
}

TEST(Keyformer, NoNoiseStaticTauMatchesH2OKeepSet) {
  // With zero noise and tau == 1 the Keyformer score reduces exactly to
  // accumulated attention, so the keep set must match H2O's.
  Scenario a(30, {2, 7, 11});
  Scenario b(30, {2, 7, 11});
  KeyformerPolicy kf(quiet_keyformer());
  H2OPolicy h2o;
  CacheBudget budget;
  budget.max_tokens = 10;
  budget.recent_window = 3;
  kf.set_budget(budget);
  h2o.set_budget(budget);
  kf.begin_sequence(seq_info(30));
  h2o.begin_sequence(seq_info(30));
  a.observe(kf);
  b.observe(h2o);
  const auto pa = a.cache.original_positions();
  const auto pb = b.cache.original_positions();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Keyformer, HotTokenSurvives) {
  Scenario s(30, {4});
  KeyformerPolicy policy(quiet_keyformer());
  CacheBudget b;
  b.max_tokens = 8;
  b.recent_window = 4;
  policy.set_budget(b);
  policy.begin_sequence(seq_info(30));
  s.observe(policy);
  const auto pos = s.cache.original_positions();
  EXPECT_NE(std::find(pos.begin(), pos.end(), 4u), pos.end());
}

TEST(Keyformer, SharedScopeAccumulatesByPosition) {
  Scenario s(16, {3});
  KeyformerConfig cfg = quiet_keyformer();
  cfg.scope = ScoreScope::kShared;
  KeyformerPolicy policy(cfg);
  policy.set_budget(CacheBudget{});
  policy.begin_sequence(seq_info(16, 8));
  s.observe(policy);
  const auto shared = policy.shared_scores();
  ASSERT_GE(shared.size(), 16u);
  EXPECT_GT(shared[3], shared[5]);
  // Per-layer cache scores stay untouched in shared mode.
  EXPECT_DOUBLE_EQ(s.cache.total_score(3), 0.0);
}

TEST(Keyformer, SharedScopeSurvivesCompaction) {
  // Shared scores are indexed by original position, so compaction must not
  // disturb them.
  Scenario s(16, {3});
  KeyformerConfig cfg = quiet_keyformer();
  cfg.scope = ScoreScope::kShared;
  KeyformerPolicy policy(cfg);
  CacheBudget b;
  b.max_tokens = 6;
  b.recent_window = 2;
  policy.set_budget(b);
  policy.begin_sequence(seq_info(16, 8));
  s.observe(policy);
  const auto pos = s.cache.original_positions();
  EXPECT_NE(std::find(pos.begin(), pos.end(), 3u), pos.end());
}

TEST(Keyformer, PromptChunkScoresMatchFullRowReference) {
  // A multi-row prompt chunk: query q sees the first
  // key_len - n_queries + q + 1 keys and the tail is masked to -inf. The
  // policy scores each row's visible prefix only; under the scalar kernel
  // the per-layer scores must equal the historical full-row loop bit for
  // bit, masked entries and all, and so must a decode row after it.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr std::size_t kHeads = Scenario::kHeads;
  constexpr std::size_t kSteps = 8;
  Scenario s(12);
  KeyformerPolicy policy;  // Gumbel noise, dynamic tau
  policy.set_budget(CacheBudget{});
  policy.begin_sequence(seq_info(12, kSteps));
  const ScoreFunction noise_fn(policy.config().score);
  Rng rng(32);
  std::vector<std::vector<double>> expected(kHeads);

  // Observes `n_queries` rows over the whole cache at `decode_step`, then
  // adds the full-row reference increments to `expected`.
  const auto observe_rows = [&](std::size_t n_queries,
                                std::size_t decode_step) {
    const std::size_t key_len = s.cache.size();
    std::vector<float> logits(kHeads * n_queries * key_len);
    for (std::size_t h = 0; h < kHeads; ++h) {
      for (std::size_t q = 0; q < n_queries; ++q) {
        const std::size_t vis = key_len - n_queries + q + 1;
        float* row = logits.data() + (h * n_queries + q) * key_len;
        for (std::size_t i = 0; i < key_len; ++i) {
          row[i] = i < vis ? static_cast<float>(2.0 * rng.normal()) : -kInf;
        }
      }
    }
    const std::vector<float> probs(logits.size(), 0.0F);
    observe_call(policy, s.ctx(decode_step), n_queries, logits, probs);

    const auto positions = s.cache.original_positions();
    const double tau =
        policy.config().score.temperature.at(decode_step, kSteps);
    std::vector<double> noise(key_len);
    std::vector<double> inc(key_len);
    for (std::size_t h = 0; h < kHeads; ++h) {
      for (std::size_t i = 0; i < key_len; ++i) {
        noise[i] = noise_fn.noise(0, h, positions[i]);
      }
      expected[h].resize(key_len, 0.0);
      for (std::size_t q = 0; q < n_queries; ++q) {
        reference::score_increments(
            {logits.data() + (h * n_queries + q) * key_len, key_len}, noise,
            tau, inc);
        for (std::size_t i = 0; i < key_len; ++i) expected[h][i] += inc[i];
      }
    }
  };
  cpu::set_isa_override(cpu::CpuIsa::kScalar);
  observe_rows(5, 0);
  std::vector<float> row(kHeads * Scenario::kDHead, 0.0F);
  s.cache.append(row, row, 12);
  observe_rows(1, 1);
  cpu::clear_isa_override();

  for (std::size_t h = 0; h < kHeads; ++h) {
    const auto scores = s.cache.scores(h);
    ASSERT_EQ(scores.size(), expected[h].size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], expected[h][i]) << "head " << h << " key " << i;
    }
  }
}

TEST(Keyformer, NoiseRowsHoldEachRowsFrozenDraw) {
  // Keyformer draws a row's zeta once, into the cache's noise row, and
  // compaction carries it with the row: after a prompt chunk and decode
  // steps that evict, every row's zeta is still the ScoreFunction draw
  // for its (layer, head, original position). kNone keeps no row.
  constexpr std::size_t kHeads = Scenario::kHeads;
  constexpr std::size_t kLayer = 3;
  for (const auto adjustment :
       {LogitAdjustment::kGumbel, LogitAdjustment::kGaussian,
        LogitAdjustment::kConstant, LogitAdjustment::kNone}) {
    SCOPED_TRACE(to_string(adjustment));
    KeyformerConfig cfg;
    cfg.score.adjustment = adjustment;
    KeyformerPolicy policy(cfg);
    const ScoreFunction fn(cfg.score);
    CacheBudget budget;
    budget.max_tokens = 6;
    budget.recent_window = 2;
    policy.set_budget(budget);
    policy.begin_sequence(seq_info(10));
    Scenario s(10);
    Rng rng(34);
    const auto observe_rows = [&](std::size_t n_queries,
                                  std::size_t decode_step) {
      const std::size_t key_len = s.cache.size();
      std::vector<float> logits(kHeads * n_queries * key_len);
      for (float& x : logits) x = static_cast<float>(rng.normal());
      const std::vector<float> probs(logits.size(), 0.0F);
      PolicyContext c = s.ctx(decode_step);
      c.layer = kLayer;
      observe_call(policy, c, n_queries, logits, probs);
    };
    observe_rows(10, 0);
    std::vector<float> row(kHeads * Scenario::kDHead, 0.0F);
    for (std::size_t t = 1; t <= 5; ++t) {
      s.cache.append(row, row, 9 + t);
      observe_rows(1, t);
    }
    ASSERT_EQ(s.cache.size(), 6u);
    EXPECT_EQ(s.cache.original_position(5), 14u);  // compaction moved rows
    for (std::size_t h = 0; h < kHeads; ++h) {
      const auto noise = s.cache.noise(h);
      if (adjustment == LogitAdjustment::kNone) {
        EXPECT_TRUE(noise.empty());
        continue;
      }
      ASSERT_EQ(noise.size(), s.cache.size());
      for (std::size_t i = 0; i < noise.size(); ++i) {
        EXPECT_EQ(noise[i], fn.noise(kLayer, h, s.cache.original_position(i)))
            << "head " << h << " row " << i;
      }
    }
  }
}

TEST(Keyformer, SharedScopeRejectsDamping) {
  // Damping scales the per-layer cache scores, which shared scope neither
  // writes nor ranks by, so the combination would silently do nothing.
  KeyformerConfig cfg;
  cfg.scope = ScoreScope::kShared;
  cfg.score.damping = 0.9;
  EXPECT_THROW(KeyformerPolicy{cfg}, std::invalid_argument);
  cfg.score.damping = 1.0;
  EXPECT_NO_THROW(KeyformerPolicy{cfg});
  cfg.scope = ScoreScope::kPerLayer;
  cfg.score.damping = 0.9;
  EXPECT_NO_THROW(KeyformerPolicy{cfg});
}

TEST(Keyformer, NoiseChangesSelectionSomewhere) {
  // With flat logits, selection is driven by the frozen noise; two seeds
  // should eventually disagree.
  Scenario a(40), b(40);
  KeyformerConfig c1;
  c1.score.seed = 1;
  c1.score.noise_scale = 1.0;
  KeyformerConfig c2;
  c2.score.seed = 2;
  c2.score.noise_scale = 1.0;
  KeyformerPolicy p1(c1), p2(c2);
  CacheBudget budget;
  budget.max_tokens = 10;
  budget.recent_window = 3;
  p1.set_budget(budget);
  p2.set_budget(budget);
  p1.begin_sequence(seq_info(40));
  p2.begin_sequence(seq_info(40));
  a.observe(p1);
  b.observe(p2);
  const auto pa = a.cache.original_positions();
  const auto pb = b.cache.original_positions();
  bool differs = pa.size() != pb.size();
  for (std::size_t i = 0; !differs && i < pa.size(); ++i) {
    differs = pa[i] != pb[i];
  }
  EXPECT_TRUE(differs);
}

// ----------------------------------------- streaming vs observed scoring

/// Everything a generation leaves behind that a policy's scores decide.
struct Generation {
  std::vector<float> logits;           // the prefill's, then each step's
  std::vector<std::size_t> positions;  // every layer's kept positions
  std::vector<double> scores;          // every layer's per-head scores
  std::vector<double> noise;           // every layer's per-head noise rows
  std::vector<double> shared;          // Keyformer's shared-scope table
};

TEST(StreamingScores, ObserverLeavesEveryBitAsIs) {
  // Without an observer the attend scores each (head, row) from
  // per-thread scratch and a lone prompt chunk splits its heads across
  // the pool; an observer makes every call keep the logit and probability
  // tensors, and the hooks read the tensor rows instead. A prefill plus 8
  // decode steps must leave the same bits either way, under every policy.
  model::ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 32;
  cfg.n_layers = 2;
  cfg.n_heads = 4;
  cfg.d_ff = 64;
  cfg.max_seq_len = 128;
  model::Transformer m(cfg);
  constexpr std::size_t kSteps = 8;
  std::vector<model::Token> prompt(40);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<model::Token>((i * 11 + 3) % cfg.vocab_size);
  }

  std::vector<PolicyConfig> configs;
  for (const auto kind :
       {PolicyKind::kFull, PolicyKind::kWindow, PolicyKind::kDilatedWindow,
        PolicyKind::kRandom, PolicyKind::kKeyAttention, PolicyKind::kH2O,
        PolicyKind::kStreamingLLM, PolicyKind::kKeyformer}) {
    PolicyConfig pc;
    pc.kind = kind;
    configs.push_back(pc);
  }
  PolicyConfig shared;
  shared.kind = PolicyKind::kKeyformer;
  shared.keyformer.scope = ScoreScope::kShared;
  configs.push_back(shared);
  PolicyConfig damped_h2o;
  damped_h2o.kind = PolicyKind::kH2O;
  damped_h2o.h2o_damping = 0.9;
  configs.push_back(damped_h2o);
  PolicyConfig damped_keyformer;
  damped_keyformer.kind = PolicyKind::kKeyformer;
  damped_keyformer.keyformer.score.damping = 0.9;
  configs.push_back(damped_keyformer);

  for (const PolicyConfig& pc : configs) {
    SCOPED_TRACE(to_string(pc.kind) +
                 (pc.keyformer.scope == ScoreScope::kShared ? " shared" : ""));
    std::size_t observed_rows = 0;
    const auto generate = [&](bool observed) {
      if (observed) {
        m.set_observer([&](const model::AttentionObservation& o) {
          EXPECT_EQ(o.attn->probs.size(),
                    cfg.n_heads * o.attn->n_q * o.attn->key_len);
          observed_rows += o.attn->n_q;
        });
      } else {
        m.set_observer({});
      }
      auto policy = make_policy(pc);
      policy->set_budget(make_budget(prompt.size(), 0.5));
      policy->begin_sequence({prompt.size(), kSteps});
      SequenceKvState state = m.make_kv_state();
      Generation g;
      const Tensor first = m.prefill(state, prompt, 0, *policy);
      g.logits.assign(first.span().begin(), first.span().end());
      for (std::size_t t = 1; t <= kSteps; ++t) {
        const auto token =
            static_cast<model::Token>((7 * t + 5) % cfg.vocab_size);
        const std::vector<float> step =
            m.decode(state, token, prompt.size() + t - 1, t, *policy);
        g.logits.insert(g.logits.end(), step.begin(), step.end());
      }
      for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        const KvCache& cache = state.layer(l);
        const auto pos = cache.original_positions();
        g.positions.insert(g.positions.end(), pos.begin(), pos.end());
        for (std::size_t h = 0; h < cfg.n_heads; ++h) {
          const auto sc = cache.scores(h);
          g.scores.insert(g.scores.end(), sc.begin(), sc.end());
          const auto z = cache.noise(h);
          g.noise.insert(g.noise.end(), z.begin(), z.end());
        }
      }
      if (const auto* kf = dynamic_cast<const KeyformerPolicy*>(policy.get())) {
        g.shared.assign(kf->shared_scores().begin(),
                        kf->shared_scores().end());
      }
      return g;
    };
    const Generation streamed = generate(false);
    const Generation observed = generate(true);
    m.set_observer({});
    EXPECT_EQ(observed_rows, cfg.n_layers * (prompt.size() + kSteps));
    EXPECT_EQ(streamed.logits, observed.logits);
    EXPECT_EQ(streamed.positions, observed.positions);
    EXPECT_EQ(streamed.scores, observed.scores);
    EXPECT_EQ(streamed.noise, observed.noise);
    EXPECT_EQ(streamed.shared, observed.shared);
  }
}

// ---------------------------------------------------------------- factory

TEST(PolicyFactory, RoundTripNames) {
  for (const auto kind :
       {PolicyKind::kFull, PolicyKind::kWindow, PolicyKind::kDilatedWindow,
        PolicyKind::kRandom, PolicyKind::kKeyAttention, PolicyKind::kH2O,
        PolicyKind::kStreamingLLM, PolicyKind::kKeyformer}) {
    EXPECT_EQ(parse_policy_kind(to_string(kind)), kind);
  }
}

TEST(PolicyFactory, UnknownNameThrows) {
  EXPECT_THROW(parse_policy_kind("bogus"), std::invalid_argument);
}

TEST(PolicyFactory, ProducesCorrectPolicyNames) {
  EXPECT_EQ(make_policy(PolicyKind::kFull)->name(), "full");
  EXPECT_EQ(make_policy(PolicyKind::kWindow)->name(), "window");
  EXPECT_EQ(make_policy(PolicyKind::kDilatedWindow)->name(),
            "dilated_window");
  EXPECT_EQ(make_policy(PolicyKind::kKeyformer)->name(), "keyformer");
  EXPECT_EQ(make_policy(PolicyKind::kStreamingLLM)->name(),
            "streaming_llm");
}

// -------------------------------------------- parameterized budget sweep

class BudgetInvariantTest
    : public ::testing::TestWithParam<std::tuple<PolicyKind, double>> {};

TEST_P(BudgetInvariantTest, CacheEndsExactlyAtBudget) {
  const auto [kind, ratio] = GetParam();
  PolicyConfig config;
  config.kind = kind;
  auto policy = make_policy(config);
  const std::size_t n = 64;
  Scenario s(n, {5, 9, 13});
  const CacheBudget b = make_budget(n, ratio);
  policy->set_budget(b);
  policy->begin_sequence(seq_info(n));
  s.observe(*policy);
  EXPECT_EQ(s.cache.size(), b.max_tokens);
  // Original-position order preserved.
  const auto pos = s.cache.original_positions();
  EXPECT_TRUE(std::is_sorted(pos.begin(), pos.end()));
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllBudgets, BudgetInvariantTest,
    ::testing::Combine(
        ::testing::Values(PolicyKind::kWindow, PolicyKind::kDilatedWindow,
                          PolicyKind::kRandom, PolicyKind::kKeyAttention,
                          PolicyKind::kH2O, PolicyKind::kStreamingLLM,
                          PolicyKind::kKeyformer),
        ::testing::Values(0.2, 0.3, 0.5, 0.7, 0.9)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

}  // namespace
}  // namespace kf::kv
