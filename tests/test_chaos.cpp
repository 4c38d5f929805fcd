// Randomized fault-injection ("chaos") suite for the serving stack.
//
// A SeededFaultInjector vetoes ~10% of block reservations and ~10% of
// block allocations while a paged engine — its pool sized to 40% of the
// workload's aggregate demand — drives a mixed batch of staggered
// arrivals, deadlines, and queue caps. Whatever the failure pattern, the
// engine's robustness invariants must hold:
//   1. run() never throws: every per-request problem is contained;
//   2. every request terminates with a definite finish reason (never
//      kRunning), and kRejected/kTimeout responses carry an error string;
//   3. after teardown the pool holds zero used and zero reserved blocks —
//      no leak survives any interleaving of faults and preemptions;
//   4. sequences that complete normally (kLength) are token-exact against
//      a fault-free solo run — faults may delay or evict work, never
//      corrupt it (recompute-based resume replays exactly);
//   5. the engine's accounting agrees with its Responses on every exit
//      path: EngineStats' eviction counters, eviction_report() and the
//      evict.keyformer.* registry counters equal the sums of
//      Response::eviction, and timeouts/rejections equal the kTimeout/
//      kRejected counts — a sequence parked and then timed out or refused
//      re-admission is counted like any other.
// The suite runs under ASan and TSan in CI (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "engine_accounting.h"
#include "kvcache/policy_factory.h"
#include "serve/engine.h"
#include "serve/fault.h"

namespace kf::serve {
namespace {

using model::ModelConfig;
using model::Token;
using model::Transformer;

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 512;
  return cfg;
}

std::vector<Token> make_prompt(std::size_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<Token> prompt(n);
  for (auto& t : prompt) {
    t = static_cast<Token>(rng.uniform_u64(64));
  }
  return prompt;
}

/// The chaos workload: mixed prompt lengths, staggered arrivals, a couple
/// of deadlines and queue caps sprinkled in. Deterministic per seed.
std::vector<Request> chaos_requests(std::uint64_t seed, std::size_t n = 8) {
  Rng rng(seed);
  std::vector<Request> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].id = i;
    requests[i].prompt = make_prompt(16 + rng.uniform_u64(24), seed * 100 + i);
    requests[i].gen.max_new_tokens = 4 + rng.uniform_u64(8);
    requests[i].gen.cache_ratio = 0.5;
    requests[i].arrival_step = rng.uniform_u64(8);
    if (i % 4 == 2) requests[i].deadline_steps = 12 + rng.uniform_u64(20);
    if (i % 4 == 3) requests[i].max_queue_steps = 10 + rng.uniform_u64(20);
  }
  return requests;
}

/// Paged engine config whose pool is ~`fraction` of the workload's
/// aggregate admission demand.
EngineConfig chaos_config(const std::vector<Request>& requests,
                          double fraction) {
  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.paged.enabled = true;
  ec.paged.block_tokens = 8;
  std::size_t demand_blocks = 0;
  for (const auto& r : requests) {
    // 2 layers, admission peak = full prompt per layer.
    demand_blocks += 2 * ((r.prompt.size() + 7) / 8);
  }
  const auto scaled =
      static_cast<std::size_t>(static_cast<double>(demand_blocks) * fraction);
  ec.paged.capacity_blocks = std::max<std::size_t>(16, scaled);
  return ec;
}

void expect_definite_outcomes(const std::vector<Request>& requests,
                              const std::vector<Response>& responses) {
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    EXPECT_NE(r.finish, FinishReason::kRunning) << "req " << i;
    if (r.finish == FinishReason::kRejected ||
        r.finish == FinishReason::kTimeout) {
      EXPECT_FALSE(r.error.empty()) << "req " << i;
    } else {
      EXPECT_TRUE(r.error.empty()) << "req " << i;
    }
    if (r.finish == FinishReason::kLength) {
      EXPECT_EQ(r.tokens.size(), requests[i].gen.max_new_tokens)
          << "req " << i;
    }
  }
}

TEST(Chaos, FaultsNeverLeakBlocksOrLoseDefiniteOutcomes) {
  Transformer model(tiny_config());
  // Seed 17 parks sequences that later time out while queued.
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u}) {
    const auto requests = chaos_requests(seed);
    // 40% keeps the pool tight enough that every seed parks sequences
    // and falls back to emergency blocks, and seed 3 rejects one.
    const EngineConfig ec = chaos_config(requests, /*fraction=*/0.4);
    Engine engine(model, ec);
    FaultInjectorConfig fc;
    fc.reserve_failure_rate = 0.10;
    fc.allocate_failure_rate = 0.10;
    fc.seed = seed;
    SeededFaultInjector injector(fc);
    engine.set_fault_injector(&injector);

    // Invariant 1: contained — a throw escaping run() fails the test.
    const auto responses = engine.run(requests);
    engine.set_fault_injector(nullptr);

    // Invariant 2: definite outcomes.
    expect_definite_outcomes(requests, responses);

    // Invariant 3: nothing leaked, whatever the interleaving.
    ASSERT_NE(engine.pool(), nullptr);
    EXPECT_EQ(engine.pool()->stats().used_blocks, 0u) << "seed " << seed;
    EXPECT_EQ(engine.pool()->stats().reserved_blocks, 0u) << "seed " << seed;

    // Invariant 5: accounting matches the Responses on every exit path.
    {
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_accounting_matches_responses(engine, responses);
    }

    // Invariant 4: normal finishers are token-exact against a fault-free
    // solo run — faults delay work, they never corrupt it.
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].finish != FinishReason::kLength) continue;
      Engine solo(model, ec);
      Request alone = requests[i];
      alone.arrival_step = 0;
      alone.deadline_steps = 0;
      alone.max_queue_steps = 0;
      const auto solo_resp = solo.run({&alone, 1});
      EXPECT_EQ(responses[i].tokens, solo_resp[0].tokens)
          << "seed " << seed << " req " << i;
    }

    // The run was not vacuous: the injector actually vetoed something.
    EXPECT_GT(injector.reserve_failures() + injector.allocate_failures(), 0u)
        << "seed " << seed;
  }
}

TEST(Chaos, TotalReservationFailureStillTerminatesEveryRequest) {
  // 100% reserve-failure rate: nothing can ever be admitted. The retry cap
  // must turn every request into a definite kRejected instead of spinning
  // the admission loop forever.
  Transformer model(tiny_config());
  const auto requests = chaos_requests(/*seed=*/4, /*n=*/4);
  EngineConfig ec = chaos_config(requests, 0.5);
  ec.scheduler.max_reserve_retries = 8;  // keep the run short
  Engine engine(model, ec);
  FaultInjectorConfig fc;
  fc.reserve_failure_rate = 1.0;
  fc.seed = 4;
  SeededFaultInjector injector(fc);
  engine.set_fault_injector(&injector);
  const auto responses = engine.run(requests);
  engine.set_fault_injector(nullptr);
  for (const auto& r : responses) {
    // Queue-capped requests may time out first; everyone terminates.
    EXPECT_TRUE(r.finish == FinishReason::kRejected ||
                r.finish == FinishReason::kTimeout);
    EXPECT_FALSE(r.error.empty());
    EXPECT_TRUE(r.tokens.empty());
  }
  EXPECT_EQ(engine.pool()->stats().used_blocks, 0u);
  EXPECT_EQ(engine.pool()->stats().reserved_blocks, 0u);
  expect_accounting_matches_responses(engine, responses);
}

TEST(Chaos, AllocateFaultsForceParksButStreamsStayExact) {
  // Allocation faults strike mid-decode: the cache falls back to emergency
  // memory, the engine parks the sequence, and the resume replays it
  // exactly. Higher rate than the mixed test to hammer the park path.
  Transformer model(tiny_config());
  const auto requests = chaos_requests(/*seed=*/5, /*n=*/6);
  const EngineConfig ec = chaos_config(requests, 0.6);
  Engine engine(model, ec);
  FaultInjectorConfig fc;
  fc.allocate_failure_rate = 0.25;
  fc.seed = 5;
  SeededFaultInjector injector(fc);
  engine.set_fault_injector(&injector);
  const auto responses = engine.run(requests);
  engine.set_fault_injector(nullptr);
  expect_definite_outcomes(requests, responses);
  EXPECT_EQ(engine.pool()->stats().used_blocks, 0u);
  EXPECT_EQ(engine.pool()->stats().reserved_blocks, 0u);
  expect_accounting_matches_responses(engine, responses);
  EXPECT_GT(injector.allocate_failures(), 0u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].finish != FinishReason::kLength) continue;
    Engine solo(model, ec);
    Request alone = requests[i];
    alone.arrival_step = 0;
    alone.deadline_steps = 0;
    alone.max_queue_steps = 0;
    const auto solo_resp = solo.run({&alone, 1});
    EXPECT_EQ(responses[i].tokens, solo_resp[0].tokens)
        << "req " << i;
  }
}

}  // namespace
}  // namespace kf::serve
