#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"
#include "kvcache/policy_factory.h"
#include "model/generator.h"

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

std::vector<Token> make_prompt(std::size_t n, std::uint64_t seed = 0) {
  std::vector<Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Token>((i * 11 + 3 + seed * 7) % 64);
  }
  return p;
}

/// The classic pre-engine single-sequence loop, kept as the golden
/// reference the Engine must reproduce token for token.
std::vector<Token> reference_generate(Transformer& model,
                                      std::span<const Token> prompt,
                                      kv::EvictionPolicy& policy,
                                      const GenerationConfig& cfg) {
  policy.set_budget(
      kv::make_budget(prompt.size(), cfg.cache_ratio, cfg.recent_ratio));
  kv::SequenceInfo info;
  info.prompt_len = prompt.size();
  info.total_steps = cfg.max_new_tokens;
  info.n_layers = model.config().n_layers;
  info.n_heads = model.config().n_heads;
  policy.begin_sequence(info);

  model.reset();
  const Tensor prompt_logits =
      model.prefill(prompt, policy, cfg.max_new_tokens);

  std::vector<Token> tokens;
  const auto recent_window = [&]() -> std::span<const Token> {
    const std::size_t n = tokens.size();
    const std::size_t w =
        cfg.repetition_window == 0 ? n : std::min(n, cfg.repetition_window);
    return {tokens.data() + (n - w), w};
  };

  Token next = model::select_greedy(prompt_logits.row(0), recent_window(),
                                    cfg.repetition_penalty, cfg.banned_tokens);
  for (std::size_t t = 1; t <= cfg.max_new_tokens; ++t) {
    tokens.push_back(next);
    if (cfg.eos_token >= 0 && next == cfg.eos_token) break;
    if (tokens.size() >= cfg.max_new_tokens) break;
    const std::size_t position = prompt.size() + t - 1;
    const std::vector<float> logits =
        model.decode(next, position, t, cfg.max_new_tokens, policy);
    next = model::select_greedy(logits, recent_window(),
                                cfg.repetition_penalty, cfg.banned_tokens);
  }
  return tokens;
}

class EngineParity
    : public ::testing::TestWithParam<
          std::tuple<PositionalKind, kv::PolicyKind>> {};

TEST_P(EngineParity, BatchOfOneMatchesReferenceLoopTokenExactly) {
  // The reference loop, model::generate() and a one-request engine run
  // give the same tokens; generate() and the engine's Response also agree
  // on the budget and the cache sizes.
  const auto [pos, kind] = GetParam();
  Transformer model(tiny_config(pos));

  GenerationConfig g;
  g.max_new_tokens = 12;
  g.cache_ratio = kind == kv::PolicyKind::kFull ? 1.0 : 0.5;
  const auto prompt = make_prompt(32);

  auto ref_policy = kv::make_policy(kind);
  const std::vector<Token> expected =
      reference_generate(model, prompt, *ref_policy, g);

  auto gen_policy = kv::make_policy(kind);
  const model::GenerationResult generated =
      model::generate(model, prompt, *gen_policy, g);
  EXPECT_EQ(generated.tokens, expected);

  EngineConfig ec;
  ec.policy.kind = kind;
  Engine engine(model, ec);
  Request req;
  req.prompt = prompt;
  req.gen = g;
  const auto responses = engine.run({&req, 1});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].tokens, expected);
  EXPECT_EQ(responses[0].prompt_len, prompt.size());
  EXPECT_EQ(responses[0].finish, FinishReason::kLength);
  EXPECT_GT(responses[0].prefill_seconds, 0.0);
  EXPECT_EQ(responses[0].budget.max_tokens, generated.budget.max_tokens);
  EXPECT_EQ(responses[0].budget.recent_window, generated.budget.recent_window);
  EXPECT_EQ(responses[0].final_cache_sizes, generated.final_cache_sizes);
  EXPECT_EQ(responses[0].peak_cache_tokens, generated.peak_cache_tokens);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesFamilies, EngineParity,
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

TEST(Engine, MixedBatchSequencesDoNotPerturbEachOther) {
  // Randomized continuous-batching run: mixed prompt lengths, staggered
  // arrivals, mixed generation lengths — every request's token stream must
  // be identical to its solo batch-of-one run, and per-sequence budget
  // invariants must hold throughout.
  Transformer model(tiny_config());
  Rng rng(123);

  std::vector<Request> requests;
  for (std::size_t i = 0; i < 7; ++i) {
    Request req;
    req.id = i;
    req.prompt = make_prompt(12 + rng.uniform_u64(30), /*seed=*/i);
    req.gen.max_new_tokens = 4 + rng.uniform_u64(10);
    req.gen.cache_ratio = 0.5;
    req.arrival_step = rng.uniform_u64(6);
    requests.push_back(std::move(req));
  }

  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = 4;
  ec.scheduler.max_concurrent_tokens = 120;

  Engine engine(model, ec);
  const auto mixed = engine.run(requests);
  ASSERT_EQ(mixed.size(), requests.size());
  EXPECT_LE(engine.stats().max_batch, 4u);
  EXPECT_LE(engine.stats().max_blocks_in_use,
            engine.stats().pool_capacity_blocks);
  EXPECT_GT(engine.stats().decoded_tokens, 0u);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Budget invariants per sequence.
    const auto& r = mixed[i];
    const kv::CacheBudget budget = kv::make_budget(
        requests[i].prompt.size(), requests[i].gen.cache_ratio);
    EXPECT_EQ(r.budget.max_tokens, budget.max_tokens) << "req " << i;
    for (const std::size_t size : r.final_cache_sizes) {
      EXPECT_LE(size, std::max(budget.max_tokens, requests[i].prompt.size()))
          << "req " << i;
    }
    EXPECT_LE(r.peak_cache_tokens,
              std::max(requests[i].prompt.size(), budget.max_tokens + 1))
        << "req " << i;
    EXPECT_EQ(r.tokens.size(), requests[i].gen.max_new_tokens)
        << "req " << i;

    // Solo run of the same request: identical tokens.
    Engine solo(model, ec);
    Request alone = requests[i];
    alone.arrival_step = 0;
    const auto solo_resp = solo.run({&alone, 1});
    EXPECT_EQ(r.tokens, solo_resp[0].tokens) << "req " << i;
  }
}

TEST(Engine, MixedBatchDeterministicAcrossRuns) {
  Transformer model(tiny_config(PositionalKind::kALiBi));
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 5; ++i) {
    Request req;
    req.prompt = make_prompt(16 + 4 * i, i);
    req.gen.max_new_tokens = 6 + i;
    req.gen.cache_ratio = 0.6;
    req.arrival_step = i / 2;
    requests.push_back(std::move(req));
  }
  EngineConfig ec;
  ec.scheduler.max_batch_size = 3;
  Engine engine(model, ec);
  const auto a = engine.run(requests);
  const auto b = engine.run(requests);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tokens, b[i].tokens) << "req " << i;
  }
}

TEST(Engine, EosRetiresSequenceMidBatchWithoutPerturbingOthers) {
  Transformer model(tiny_config());
  // Probe run to learn the first generated token of request 0, then make
  // that token its eos so it retires after one token while others run on.
  Request probe;
  probe.prompt = make_prompt(20, 0);
  probe.gen.max_new_tokens = 8;
  Engine engine(model, EngineConfig{});
  const auto probe_resp = engine.run({&probe, 1});
  ASSERT_FALSE(probe_resp[0].tokens.empty());

  std::vector<Request> requests(3);
  for (std::size_t i = 0; i < 3; ++i) {
    requests[i].id = i;
    requests[i].prompt = make_prompt(20, i);
    requests[i].gen.max_new_tokens = 8;
  }
  requests[0].gen.eos_token = probe_resp[0].tokens[0];

  const auto mixed = engine.run(requests);
  EXPECT_EQ(mixed[0].tokens.size(), 1u);
  EXPECT_EQ(mixed[0].finish, FinishReason::kEos);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(mixed[i].tokens.size(), 8u);
    Engine solo(model, EngineConfig{});
    const auto solo_resp = solo.run({&requests[i], 1});
    EXPECT_EQ(mixed[i].tokens, solo_resp[0].tokens) << "req " << i;
  }
}

TEST(Engine, LateArrivalJoinsMidStream) {
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(16, 0);
  requests[0].gen.max_new_tokens = 10;
  requests[1].prompt = make_prompt(16, 1);
  requests[1].gen.max_new_tokens = 4;
  requests[1].arrival_step = 5;  // joins while request 0 is decoding

  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].tokens.size(), 10u);
  EXPECT_EQ(responses[1].tokens.size(), 4u);
  EXPECT_GE(responses[1].first_decode_step, 5u);
  // The latecomer's tokens match its solo run regardless of the join.
  Engine solo(model, EngineConfig{});
  Request alone = requests[1];
  alone.arrival_step = 0;
  const auto solo_resp = solo.run({&alone, 1});
  EXPECT_EQ(responses[1].tokens, solo_resp[0].tokens);
}

TEST(Engine, ZeroMaxNewTokensFinishesWithoutDecoding) {
  Transformer model(tiny_config());
  Request req;
  req.prompt = make_prompt(8);
  req.gen.max_new_tokens = 0;
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run({&req, 1});
  EXPECT_TRUE(responses[0].tokens.empty());
  EXPECT_EQ(responses[0].finish, FinishReason::kLength);
  EXPECT_EQ(engine.stats().steps, 0u);
}

TEST(Engine, RejectsEmptyPromptAndBatchKeepsDecoding) {
  // An empty prompt is contained as a kRejected response — never an
  // exception — and the valid request next to it decodes normally.
  Transformer model(tiny_config());
  Engine engine(model, EngineConfig{});
  std::vector<Request> requests(2);
  // requests[0]: empty prompt.
  requests[1].prompt = make_prompt(8);
  requests[1].gen.max_new_tokens = 4;
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].finish, FinishReason::kRejected);
  EXPECT_FALSE(responses[0].error.empty());
  EXPECT_TRUE(responses[0].tokens.empty());
  EXPECT_NE(responses[1].finish, FinishReason::kRejected);
  EXPECT_EQ(responses[1].tokens.size(), 4u);
  EXPECT_EQ(engine.stats().rejections, 1u);
}

TEST(Engine, RejectsOutOfVocabularyPromptAndBatchKeepsDecoding) {
  // A prompt token outside [0, vocab_size) is contained as a kRejected
  // response instead of an exception out of run(), and the request next
  // to it still finishes with exactly its solo tokens.
  Transformer model(tiny_config());  // 64-token vocabulary
  GenerationConfig g;
  g.max_new_tokens = 6;
  g.cache_ratio = 0.5;
  Request good;
  good.prompt = make_prompt(12);
  good.gen = g;
  Engine solo_engine(model, EngineConfig{});
  const std::vector<Token> solo = solo_engine.run({&good, 1})[0].tokens;
  ASSERT_EQ(solo.size(), 6u);

  for (const std::vector<Token>& bad : {std::vector<Token>{1, 200, 3},
                                        std::vector<Token>{1, -1, 3}}) {
    Engine engine(model, EngineConfig{});
    std::vector<Request> requests(2, good);
    requests[1].id = 1;
    requests[1].prompt = bad;
    const auto responses = engine.run(requests);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].finish, FinishReason::kLength);
    EXPECT_EQ(responses[0].tokens, solo);
    EXPECT_EQ(responses[1].finish, FinishReason::kRejected);
    EXPECT_FALSE(responses[1].error.empty());
    EXPECT_TRUE(responses[1].tokens.empty());
    EXPECT_EQ(engine.stats().rejections, 1u);
  }
}

TEST(Engine, RejectsLearnedPositionsPastTheTable) {
  // Under learned positions the largest embedded position,
  // max(prompt_len - 1, prompt_len + max_new_tokens - 2), must stay below
  // max_seq_len (the last generated token is never fed back). On a
  // 32-row table a 30-token prompt may generate 3 tokens but not 4, and a
  // 32-token prompt may generate 1 token but a 33-token prompt none.
  ModelConfig cfg = tiny_config(PositionalKind::kLearned);
  cfg.max_seq_len = 32;
  Transformer model(cfg);
  struct Case {
    std::size_t prompt_len, max_new_tokens;
    bool accepted;
  };
  const std::vector<Case> cases = {
      {30, 3, true}, {30, 4, false}, {32, 1, true}, {33, 1, false}};
  std::vector<Request> requests(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    requests[i].id = i;
    requests[i].prompt = make_prompt(cases[i].prompt_len, i);
    requests[i].gen.max_new_tokens = cases[i].max_new_tokens;
  }
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    if (cases[i].accepted) {
      EXPECT_EQ(responses[i].finish, FinishReason::kLength);
      EXPECT_EQ(responses[i].tokens.size(), cases[i].max_new_tokens);
    } else {
      EXPECT_EQ(responses[i].finish, FinishReason::kRejected);
      EXPECT_FALSE(responses[i].error.empty());
      EXPECT_TRUE(responses[i].tokens.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Paged KV memory.

TEST_P(EngineParity, BlockSizeParityIsTokenExact) {
  // The block size must be invisible to generation: the same tokens as an
  // engine whose caches are one block per layer, for every policy x
  // positional family, across block sizes that do and don't divide the
  // cache lengths.
  const auto [pos, kind] = GetParam();
  Transformer model(tiny_config(pos));

  GenerationConfig g;
  g.max_new_tokens = 12;
  g.cache_ratio = kind == kv::PolicyKind::kFull ? 1.0 : 0.5;
  const auto prompt = make_prompt(32);

  EngineConfig one_block;
  one_block.policy.kind = kind;
  one_block.paged.block_tokens = 64;  // one segment per head and layer
  Engine one_segment(model, one_block);
  Request req;
  req.prompt = prompt;
  req.gen = g;
  const auto expected = one_segment.run({&req, 1});

  for (const std::size_t block_tokens : {3, 16}) {
    EngineConfig pc = one_block;
    pc.paged.block_tokens = block_tokens;
    Engine paged(model, pc);
    const auto got = paged.run({&req, 1});
    EXPECT_EQ(got[0].tokens, expected[0].tokens)
        << "block_tokens " << block_tokens;
    ASSERT_NE(paged.pool(), nullptr);
    EXPECT_EQ(paged.pool()->stats().used_blocks, 0u)
        << "blocks leaked at block_tokens " << block_tokens;
    EXPECT_GT(paged.stats().pool_peak_used_blocks, 0u);
  }
}

TEST(Engine, MixedBatchBlockSizeParityLeaksNothing) {
  // Randomized admit/retire churn under a real block cap: staggered
  // arrivals, mixed lengths, sequences joining as others retire. Token
  // streams must match an 8-token-block engine's run for run, and after
  // the run every block must be back on the free lists with no
  // reservations left — the no-leak half of the acceptance criteria.
  Transformer model(tiny_config());
  Rng rng(321);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 9; ++i) {
    Request req;
    req.id = i;
    req.prompt = make_prompt(12 + rng.uniform_u64(30), /*seed=*/i);
    req.gen.max_new_tokens = 4 + rng.uniform_u64(10);
    req.gen.cache_ratio = 0.5;
    req.arrival_step = rng.uniform_u64(8);
    requests.push_back(std::move(req));
  }

  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = 4;
  ec.scheduler.max_concurrent_tokens = 120;
  ec.paged.block_tokens = 8;
  Engine small_blocks(model, ec);
  const auto expected = small_blocks.run(requests);

  EngineConfig pc = ec;
  pc.paged.block_tokens = 16;
  Engine paged(model, pc);
  const auto got = paged.run(requests);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Block-granular admission can only delay a join (rounding up to
    // whole blocks), never change a sequence's own tokens.
    EXPECT_EQ(got[i].tokens, expected[i].tokens) << "req " << i;
  }
  ASSERT_NE(paged.pool(), nullptr);
  const mem::PoolStats ps = paged.pool()->stats();
  EXPECT_EQ(ps.used_blocks, 0u) << "leaked blocks";
  EXPECT_EQ(ps.reserved_blocks, 0u) << "leaked reservations";
  EXPECT_GT(paged.stats().max_blocks_in_use, 0u);
  EXPECT_GT(paged.stats().pool_capacity_blocks, 0u);
  EXPECT_LE(paged.stats().pool_peak_used_blocks,
            paged.stats().pool_capacity_blocks);
  EXPECT_GE(paged.stats().max_fragmentation, 0.0);
  EXPECT_LT(paged.stats().max_fragmentation, 1.0);
}

TEST(Engine, PagedModeDerivesPoolCapacityFromTokenBudget) {
  Transformer model(tiny_config());  // 2 layers
  EngineConfig ec;
  ec.scheduler.max_concurrent_tokens = 100;
  ec.paged.block_tokens = 8;
  Engine engine(model, ec);
  ASSERT_NE(engine.pool(), nullptr);
  // 2 layers * ceil(100/8)=13 -> 26 blocks.
  EXPECT_EQ(engine.pool()->config().capacity_blocks, 26u);
  EXPECT_EQ(engine.pool()->stats().capacity_blocks, 26u);
}

TEST(Engine, GenerateStillWorksWhilePagedEngineExists) {
  // generate() runs on the model's default state without an engine; an
  // engine on the same model, with its own pool, must not disturb it.
  Transformer model(tiny_config());
  Engine paged(model, EngineConfig{});
  GenerationConfig g;
  g.max_new_tokens = 6;
  g.cache_ratio = 0.5;
  auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
  const auto prompt = make_prompt(16);
  const auto result = model::generate(model, prompt, *policy, g);
  EXPECT_EQ(result.tokens.size(), 6u);
}

TEST(Engine, AggregateStatsAreConsistent) {
  Transformer model(tiny_config());
  std::vector<Request> requests(3);
  std::size_t expected_decoded = 0;
  std::size_t expected_prefill = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    requests[i].prompt = make_prompt(10 + i, i);
    requests[i].gen.max_new_tokens = 5;
    expected_decoded += 5 - 1;  // first token comes from prefill
    expected_prefill += requests[i].prompt.size();
  }
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  EXPECT_EQ(engine.stats().decoded_tokens, expected_decoded);
  EXPECT_EQ(engine.stats().prefilled_tokens, expected_prefill);
  EXPECT_EQ(engine.stats().max_batch, 3u);
  EXPECT_GT(engine.stats().max_blocks_in_use, 0u);
  EXPECT_EQ(engine.pool()->stats().reserved_blocks, 0u);
  EXPECT_EQ(engine.pool()->stats().used_blocks, 0u);
  EXPECT_GT(engine.stats().decode_tokens_per_s(), 0.0);
  for (const auto& r : responses) {
    EXPECT_GT(r.decode_tokens_per_s(), 0.0);
    EXPECT_GT(r.prefill_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Robustness: preemption/resume, deadlines, oversized containment.

TEST(EngineRobustness, PreemptResumeIsTokenExactAcrossPolicies) {
  // Admission pressure parks a decoding victim and later resumes it by
  // recompute; its token stream must be identical to an unpressured solo
  // run — for more than one eviction policy, since resume replays the
  // policy's trims step by step.
  for (const auto kind : {kv::PolicyKind::kKeyformer, kv::PolicyKind::kH2O}) {
    Transformer model(tiny_config());
    std::vector<Request> requests(2);
    requests[0].prompt = make_prompt(32, 0);
    requests[0].gen.max_new_tokens = 16;
    requests[0].gen.cache_ratio = 0.5;
    requests[1].prompt = make_prompt(32, 1);
    requests[1].gen.max_new_tokens = 6;
    requests[1].gen.cache_ratio = 0.5;
    requests[1].arrival_step = 4;  // starved behind request 0

    EngineConfig ec;
    ec.policy.kind = kind;
    ec.paged.block_tokens = 8;
    // Room for one 32-token prompt (8 blocks) but not two.
    ec.paged.capacity_blocks = 10;
    ec.preempt.queue_pressure_steps = 2;
    ec.preempt.min_victim_age_steps = 2;
    Engine engine(model, ec);
    const auto mixed = engine.run(requests);
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_GE(engine.stats().preemptions, 1u);
    EXPECT_GT(engine.stats().resume_replayed_tokens, 0u);
    EXPECT_GE(mixed[0].preemptions, 1u);
    EXPECT_EQ(mixed[0].tokens.size(), 16u);
    EXPECT_EQ(mixed[1].tokens.size(), 6u);

    // Solo, unpressured runs: identical streams.
    for (std::size_t i = 0; i < 2; ++i) {
      EngineConfig solo_cfg = ec;
      solo_cfg.paged.capacity_blocks = 0;  // derive: effectively unbounded
      Engine solo(model, solo_cfg);
      Request alone = requests[i];
      alone.arrival_step = 0;
      const auto solo_resp = solo.run({&alone, 1});
      EXPECT_EQ(solo_resp[0].preemptions, 0u);
      EXPECT_EQ(mixed[i].tokens, solo_resp[0].tokens)
          << "req " << i << " policy " << static_cast<int>(kind);
    }
  }
}

TEST(EngineRobustness, DeadlineStepsTimesOutActiveSequence) {
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(16, 0);
  requests[0].gen.max_new_tokens = 20;
  requests[0].deadline_steps = 5;  // far below 20 decode steps
  requests[1].prompt = make_prompt(16, 1);
  requests[1].gen.max_new_tokens = 8;
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].finish, FinishReason::kTimeout);
  EXPECT_FALSE(responses[0].error.empty());
  EXPECT_LT(responses[0].tokens.size(), 20u);
  // The neighbor is untouched by the shed.
  EXPECT_EQ(responses[1].tokens.size(), 8u);
  EXPECT_NE(responses[1].finish, FinishReason::kTimeout);
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(EngineRobustness, MaxQueueStepsTimesOutStarvedWaiter) {
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(24, 0);
  requests[0].gen.max_new_tokens = 20;
  requests[0].gen.cache_ratio = 0.5;
  requests[1].prompt = make_prompt(24, 1);
  requests[1].gen.max_new_tokens = 4;
  requests[1].gen.cache_ratio = 0.5;
  requests[1].max_queue_steps = 6;  // gives up long before 0 finishes
  EngineConfig ec;
  ec.preempt.enabled = false;  // starve honestly; no preemption rescue
  ec.scheduler.max_batch_size = 1;
  Engine engine(model, ec);
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].tokens.size(), 20u);
  EXPECT_EQ(responses[1].finish, FinishReason::kTimeout);
  EXPECT_TRUE(responses[1].tokens.empty());
  EXPECT_FALSE(responses[1].error.empty());
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(EngineRobustness, OversizedForPoolRejectedRestOfBatchCompletes) {
  // A demand above the whole pool is contained as kRejected instead of
  // throwing out of run(), and its batchmates still decode —
  // token-exactly.
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(128, 0);  // 16 blocks/layer: hopeless
  requests[0].gen.max_new_tokens = 4;
  requests[1].prompt = make_prompt(16, 1);
  requests[1].gen.max_new_tokens = 6;
  requests[1].gen.cache_ratio = 0.5;
  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.paged.block_tokens = 8;
  ec.paged.capacity_blocks = 8;
  Engine engine(model, ec);
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].finish, FinishReason::kRejected);
  EXPECT_FALSE(responses[0].error.empty());
  EXPECT_TRUE(responses[0].tokens.empty());
  EXPECT_EQ(responses[1].tokens.size(), 6u);
  EXPECT_EQ(engine.stats().rejections, 1u);
  // The survivor's stream matches its solo run.
  Engine solo(model, ec);
  const auto solo_resp = solo.run({&requests[1], 1});
  EXPECT_EQ(responses[1].tokens, solo_resp[0].tokens);
  // Nothing leaked: only free blocks remain in the pool.
  EXPECT_EQ(engine.pool()->stats().used_blocks, 0u);
  EXPECT_EQ(engine.pool()->stats().reserved_blocks, 0u);
}

}  // namespace
}  // namespace kf::serve
