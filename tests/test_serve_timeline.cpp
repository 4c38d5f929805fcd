// Engine-level observability: per-request timelines on Response, the
// engine's latency histograms, the metrics registry counters, and span
// tracing across a real run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <atomic>

#include "mem/block_pool.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace kf::serve {
namespace {

using model::ModelConfig;
using model::Token;
using model::Transformer;
using obs::TimelineEventKind;

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

std::vector<Token> make_prompt(std::size_t n, std::uint64_t seed = 0) {
  std::vector<Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Token>((i * 11 + 3 + seed * 7) % 64);
  }
  return p;
}

std::vector<Request> make_requests(std::size_t n, std::size_t prompt_len,
                                   std::size_t gen_tokens) {
  std::vector<Request> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].id = i;
    reqs[i].arrival_step = i;  // staggered so queue waits are non-trivial
    reqs[i].prompt = make_prompt(prompt_len, i);
    reqs[i].gen.max_new_tokens = gen_tokens;
    reqs[i].gen.cache_ratio = 0.5;
  }
  return reqs;
}

TEST(ServeTimeline, ResponsesCarryCompleteTimelines) {
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  ec.scheduler.max_batch_size = 2;
  Engine engine(m, ec);

  const auto responses = engine.run(make_requests(4, 24, 8));
  ASSERT_EQ(responses.size(), 4u);
  for (const Response& r : responses) {
    ASSERT_EQ(r.finish, FinishReason::kLength) << "request " << r.id;
    EXPECT_TRUE(r.timeline.has(TimelineEventKind::kQueued));
    EXPECT_TRUE(r.timeline.has(TimelineEventKind::kAdmitted));
    EXPECT_TRUE(r.timeline.has(TimelineEventKind::kPrefillStart));
    EXPECT_TRUE(r.timeline.has(TimelineEventKind::kPrefillEnd));
    EXPECT_TRUE(r.timeline.has(TimelineEventKind::kFirstToken));
    EXPECT_TRUE(r.timeline.has(TimelineEventKind::kFinished));
    // Stamps are monotone along the lifecycle.
    EXPECT_LE(*r.timeline.first(TimelineEventKind::kQueued),
              *r.timeline.first(TimelineEventKind::kAdmitted));
    EXPECT_LE(*r.timeline.first(TimelineEventKind::kAdmitted),
              *r.timeline.first(TimelineEventKind::kPrefillStart));
    EXPECT_LE(*r.timeline.first(TimelineEventKind::kPrefillStart),
              *r.timeline.first(TimelineEventKind::kFirstToken));
    EXPECT_LE(*r.timeline.first(TimelineEventKind::kFirstToken),
              *r.timeline.first(TimelineEventKind::kFinished));
    // The distilled figures ride along and agree with the timeline.
    EXPECT_GT(r.ttft_seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.ttft_seconds, r.timeline.ttft_seconds());
    EXPECT_GE(r.queue_wait_seconds, 0.0);
    // 8 generated tokens -> 7 inter-token gaps.
    EXPECT_EQ(r.inter_token.count, r.tokens.size() - 1);
    EXPECT_GE(r.inter_token.min, 0.0);
  }
}

TEST(ServeTimeline, EngineHistogramsMatchWorkload) {
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  ec.scheduler.max_batch_size = 4;
  Engine engine(m, ec);

  const auto responses = engine.run(make_requests(4, 24, 8));
  const EngineStats st = engine.stats();
  // One TTFT and one queue-wait sample per completed request; one step
  // sample per decode step; inter-token gaps sum over requests.
  EXPECT_EQ(st.ttft.count, 4u);
  EXPECT_EQ(st.queue_wait.count, 4u);
  EXPECT_EQ(st.step_latency.count, st.steps);
  std::size_t gaps = 0;
  for (const Response& r : responses) gaps += r.inter_token.count;
  EXPECT_EQ(st.inter_token.count, gaps);
  EXPECT_GT(st.ttft.p99, 0.0);
  EXPECT_LE(st.ttft.p50, st.ttft.p99);
  EXPECT_GT(st.step_latency.max, 0.0);

  // The same distributions are reachable through the registry by name.
  const obs::Percentiles reg_ttft =
      engine.metrics().histogram("serve.ttft_seconds").snapshot();
  EXPECT_EQ(reg_ttft.count, st.ttft.count);
  EXPECT_DOUBLE_EQ(reg_ttft.p99, st.ttft.p99);
}

TEST(ServeTimeline, SchedulerCountersInRegistry) {
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  ec.scheduler.max_batch_size = 2;
  Engine engine(m, ec);
  engine.run(make_requests(5, 16, 4));
  EXPECT_EQ(engine.metrics().counter("sched.admitted").value(), 5u);
  EXPECT_EQ(engine.metrics().counter("sched.rejected").value(), 0u);
}

TEST(ServeTimeline, PoolCountersUnderPagedMemory) {
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  ec.scheduler.max_batch_size = 2;
  ec.scheduler.max_concurrent_tokens = 256;
  ec.paged.enabled = true;
  ec.paged.n_shards = 2;
  ec.paged.block_tokens = 8;
  Engine engine(m, ec);
  engine.run(make_requests(4, 24, 8));
  EXPECT_GT(engine.metrics().counter("pool.allocs").value(), 0u);
  EXPECT_GT(engine.metrics().counter("pool.reserves").value(), 0u);
  EXPECT_EQ(engine.metrics().counter("pool.emergency_blocks").value(), 0u);
}

TEST(ServeTimeline, TraceSpansCoverARun) {
  obs::set_trace_enabled(false);
  obs::trace_reset();

  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  ec.scheduler.max_batch_size = 2;
  Engine engine(m, ec);

  obs::set_trace_enabled(true);
  engine.run(make_requests(3, 16, 4));
  obs::set_trace_enabled(false);
  EXPECT_GT(obs::trace_event_count(), 0u);

  const std::string path = testing::TempDir() + "kf_engine_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  for (const char* span : {"\"engine.run\"", "\"prefill\"", "\"step_batch\"",
                           "\"sample\"", "\"attn.project\"",
                           "\"attn.attend\"", "\"retire\""}) {
    EXPECT_NE(json.find(span), std::string::npos) << span;
  }
  std::remove(path.c_str());
  obs::trace_reset();
}

// ---------------------------------------------------------------------------
// Edge interleavings: lifecycle stamps under preemption, rejection, and
// degenerate workloads.

TEST(ServeTimeline, PreemptThenTimeoutKeepsOrderedStamps) {
  // A victim parked under queue pressure whose deadline expires before it
  // can resume: the timeline must show kPreempted then kFinished (no
  // kResumed), and the distilled TTFT from its pre-park tokens survives.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(32, 0);
  requests[0].gen.max_new_tokens = 16;
  requests[0].gen.cache_ratio = 0.5;
  requests[0].deadline_steps = 10;  // expires while parked
  requests[1].prompt = make_prompt(32, 1);
  requests[1].gen.max_new_tokens = 8;
  // Full attention: once admitted, request 1 occupies the whole pool
  // (32 + 8 tokens = 10 blocks), so the parked victim cannot resume
  // before its deadline — the interleaving under test.
  requests[1].gen.cache_ratio = 1.0;
  requests[1].arrival_step = 4;  // starved behind request 0

  EngineConfig ec;
  ec.paged.enabled = true;
  ec.paged.n_shards = 1;
  ec.paged.block_tokens = 8;
  ec.paged.blocks_per_shard = 10;  // one 32-token prompt fits, not two
  // Pressure window 3: request 1 (queued at 4) parks request 0 at step 7;
  // the parked victim's own counter-pressure would fire at step 10, but
  // the engine sheds deadlines first each step — so request 0 leaves as a
  // timeout while still parked, never resuming.
  ec.preempt.queue_pressure_steps = 3;
  ec.preempt.min_victim_age_steps = 2;
  Engine engine(m, ec);

  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 2u);
  const Response& victim = responses[0];
  EXPECT_GE(engine.stats().preemptions, 1u);
  ASSERT_EQ(victim.finish, FinishReason::kTimeout);
  EXPECT_TRUE(victim.timeline.has(TimelineEventKind::kPreempted));
  EXPECT_FALSE(victim.timeline.has(TimelineEventKind::kResumed));
  EXPECT_TRUE(victim.timeline.has(TimelineEventKind::kFinished));
  EXPECT_LE(*victim.timeline.first(TimelineEventKind::kPreempted),
            *victim.timeline.first(TimelineEventKind::kFinished));
  // It decoded before parking, so first-token latency is real.
  EXPECT_TRUE(victim.timeline.has(TimelineEventKind::kFirstToken));
  EXPECT_GT(victim.ttft_seconds, 0.0);
  // The survivor is untouched by its neighbor's deadline.
  EXPECT_EQ(responses[1].finish, FinishReason::kLength);
  EXPECT_EQ(responses[1].tokens.size(), 8u);
}

/// Fault injector that lets the first `allow` block allocations succeed
/// and vetoes every one after — deterministic mid-decode exhaustion.
class FailAllocationsAfter final : public mem::FaultInjector {
 public:
  explicit FailAllocationsAfter(std::size_t allow) : allow_(allow) {}
  bool should_fail(mem::FaultOp op, std::size_t /*shard*/) override {
    if (op != mem::FaultOp::kAllocate) return false;
    return calls_.fetch_add(1, std::memory_order_relaxed) >= allow_;
  }

 private:
  const std::size_t allow_;
  std::atomic<std::size_t> calls_{0};
};

TEST(ServeTimeline, ResumeThenRejectAfterPreemptionBudget) {
  // Permanent allocation failure forces a park; the resume attempt fails
  // the same way, and once the per-sequence preemption budget is spent
  // the engine must contain the sequence as kRejected — with the full
  // park/resume history on its timeline — instead of parking it forever.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  std::vector<Request> requests(1);
  requests[0].prompt = make_prompt(16, 0);
  requests[0].gen.max_new_tokens = 24;
  requests[0].gen.cache_ratio = 1.0;

  EngineConfig ec;
  ec.paged.enabled = true;
  ec.paged.n_shards = 1;
  ec.paged.block_tokens = 8;
  ec.preempt.max_per_sequence = 2;
  Engine engine(m, ec);
  // Admission + prefill of a 16-token prompt needs 2 blocks x 2 layers;
  // allow those plus a few decode appends, then fail everything.
  FailAllocationsAfter injector(/*allow=*/6);
  engine.set_fault_injector(&injector);

  const auto responses = engine.run(requests);
  engine.set_fault_injector(nullptr);
  ASSERT_EQ(responses.size(), 1u);
  const Response& r = responses[0];
  ASSERT_EQ(r.finish, FinishReason::kRejected);
  EXPECT_GE(engine.stats().preemptions, 1u);
  EXPECT_GE(engine.stats().alloc_failures, 1u);
  EXPECT_TRUE(r.timeline.has(TimelineEventKind::kPreempted));
  EXPECT_TRUE(r.timeline.has(TimelineEventKind::kResumed));
  EXPECT_TRUE(r.timeline.has(TimelineEventKind::kFinished));
  EXPECT_LE(*r.timeline.first(TimelineEventKind::kPreempted),
            *r.timeline.first(TimelineEventKind::kResumed));
  // Containment released every block: nothing may leak past the run.
  ASSERT_NE(engine.pool(), nullptr);
  EXPECT_EQ(engine.pool()->stats().used_blocks, 0u);
}

TEST(ServeTimeline, ZeroGeneratedTokensHasNoFirstTokenStamp) {
  // max_new_tokens == 0 finishes kLength after prefill without entering
  // decode: TTFT must be *absent* (no kFirstToken stamp, no TTFT
  // histogram sample) — not reported as a bogus 0.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  Engine engine(m, EngineConfig{});
  std::vector<Request> requests(1);
  requests[0].prompt = make_prompt(16, 0);
  requests[0].gen.max_new_tokens = 0;

  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 1u);
  const Response& r = responses[0];
  EXPECT_EQ(r.finish, FinishReason::kLength);
  EXPECT_TRUE(r.tokens.empty());
  EXPECT_TRUE(r.timeline.has(TimelineEventKind::kPrefillEnd));
  EXPECT_TRUE(r.timeline.has(TimelineEventKind::kFinished));
  EXPECT_FALSE(r.timeline.has(TimelineEventKind::kFirstToken));
  EXPECT_EQ(r.ttft_seconds, 0.0);
  EXPECT_EQ(r.timeline.ttft_seconds(), 0.0);
  EXPECT_EQ(r.inter_token.count, 0u);
  EXPECT_EQ(engine.stats().ttft.count, 0u);
  EXPECT_EQ(engine.metrics().histogram("serve.ttft_seconds").count(), 0u);
}

// ---------------------------------------------------------------------------
// Eviction introspection on responses.

TEST(ServeTimeline, EvictionSummaryIsBatchingInvariant) {
  // Decode is bit-exact regardless of batch composition, so a request's
  // eviction digest must be identical whether it ran solo or batched —
  // the serving-side fig-3 distribution is a property of the request, not
  // the schedule.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  Request probe;
  probe.id = 0;
  probe.prompt = make_prompt(48, 0);
  probe.gen.max_new_tokens = 16;
  probe.gen.cache_ratio = 0.5;

  EngineConfig ec;
  ec.scheduler.max_batch_size = 3;
  Engine solo_engine(m, ec);
  const auto solo = solo_engine.run({&probe, 1});
  ASSERT_EQ(solo.size(), 1u);

  std::vector<Request> batch = make_requests(3, 48, 16);
  batch[0] = probe;
  Engine batch_engine(m, ec);
  const auto batched = batch_engine.run(batch);
  ASSERT_EQ(batched.size(), 3u);

  const kv::EvictionSummary& a = solo[0].eviction;
  const kv::EvictionSummary& b = batched[0].eviction;
  EXPECT_GT(a.decisions, 0u);
  EXPECT_GT(a.tokens_evicted, 0u);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.tokens_evicted, b.tokens_evicted);
  EXPECT_EQ(a.tokens_kept, b.tokens_kept);
  EXPECT_EQ(a.position_counts, b.position_counts);
  EXPECT_EQ(a.score_min, b.score_min);
  EXPECT_EQ(a.score_max, b.score_max);
  EXPECT_EQ(a.score_mean, b.score_mean);
  EXPECT_EQ(a.score_p50, b.score_p50);

  // Qualitative fig-3 shape under Keyformer: the earliest span bucket
  // (initial "key" tokens) and the final bucket (the recent window)
  // survive eviction; the mid-span carries the bulk of the drops.
  constexpr std::size_t kB = kv::EvictionSummary::kPositionBuckets;
  std::uint64_t mid = 0;
  for (std::size_t i = kB / 4; i < (3 * kB) / 4; ++i) {
    mid += a.position_counts[i];
  }
  EXPECT_LT(a.position_counts[0], mid);
  EXPECT_LT(a.position_counts[kB - 1], mid);

  // The engine-lifetime aggregate saw exactly this sequence's activity.
  const kv::EvictionTelemetry report = solo_engine.eviction_report();
  EXPECT_EQ(report.decisions(), a.decisions);
  EXPECT_EQ(report.tokens_evicted(), a.tokens_evicted);
  EXPECT_EQ(report.n_layers(), cfg.n_layers);
  EXPECT_EQ(report.n_heads(), cfg.n_heads);
  const EngineStats st = solo_engine.stats();
  EXPECT_EQ(st.eviction_decisions, a.decisions);
  EXPECT_EQ(st.evicted_tokens, a.tokens_evicted);
  EXPECT_EQ(st.kept_tokens, a.tokens_kept);
  EXPECT_EQ(
      solo_engine.metrics().counter("evict.keyformer.decisions").value(),
      a.decisions);
}

TEST(ServeTimeline, TracingDisabledAddsNoSpans) {
  obs::set_trace_enabled(false);
  obs::trace_reset();
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  Engine engine(m, ec);
  engine.run(make_requests(2, 16, 4));
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

}  // namespace
}  // namespace kf::serve
