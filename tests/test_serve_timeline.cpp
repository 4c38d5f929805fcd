// Engine-level observability: per-request timelines on Response, the
// engine's latency histograms, the metrics registry counters, and span
// tracing across a real run.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <atomic>

#include "engine_accounting.h"
#include "mem/block_pool.h"
#include "obs/export.h"
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

  // Keyformer under admission pressure: request 1 starves behind request
  // 0 until the engine parks request 0, which resumes by replay once
  // request 1 is done. Decode spans fire in engine steps and in replays,
  // prompt spans in first prefills and in the resume. Request 1 runs full
  // attention, so it scores but never evicts.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  std::vector<Request> requests = make_requests(2, 32, 16);
  requests[1].gen.max_new_tokens = 8;
  requests[1].gen.cache_ratio = 1.0;
  requests[1].arrival_step = 4;
  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.paged.block_tokens = 8;
  ec.paged.capacity_blocks = 10;  // request 1 alone fills the pool
  ec.preempt.queue_pressure_steps = 3;
  ec.preempt.min_victim_age_steps = 2;
  Engine engine(m, ec);

  obs::set_trace_enabled(true);
  engine.run(requests);
  obs::set_trace_enabled(false);
  const EngineStats stats = engine.stats();
  ASSERT_GT(stats.preemptions, 0u);
  ASSERT_GT(stats.resume_replayed_tokens, 0u);
  EXPECT_EQ(obs::trace_dropped_count(), 0u);

  const auto totals = obs::trace_totals();
  const auto count = [&](const char* name) -> std::size_t {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.count;
  };
  const std::size_t layers = cfg.n_layers;
  const std::size_t steps = count("step_batch");
  const std::size_t chunks = count("prefill_chunk");
  EXPECT_EQ(steps, stats.steps + stats.resume_replayed_tokens);
  EXPECT_EQ(count("attn.project"), 2 * layers * steps);
  EXPECT_EQ(count("attn.attend"), layers * steps);
  EXPECT_EQ(count("policy.observe"), layers * steps);
  EXPECT_EQ(count("mlp"), layers * steps);
  EXPECT_EQ(count("lm_head"), steps);
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(count("prompt.project"), 2 * layers * chunks);
  EXPECT_EQ(count("prompt.attend"), layers * chunks);
  EXPECT_EQ(count("prompt.observe"), layers * chunks);
  EXPECT_EQ(count("prompt.mlp"), layers * chunks);
  EXPECT_EQ(count("prompt.lm_head"), chunks);
  // One score per sequence per layer in every chunk and decode row; one
  // evict per executed eviction decision, which request 1 never makes.
  const std::size_t scores = count("policy.score");
  EXPECT_EQ(scores, layers * (chunks + stats.decoded_tokens +
                              stats.resume_replayed_tokens));
  EXPECT_EQ(count("policy.evict"), stats.eviction_decisions);
  EXPECT_GT(stats.eviction_decisions, 0u);
  EXPECT_LT(stats.eviction_decisions, scores);
  for (const char* name : {"engine.run", "prefill", "resume_prefill",
                           "resume_replay", "sample", "retire"}) {
    EXPECT_GT(count(name), 0u) << name;
  }
  obs::trace_reset();
}

// ---------------------------------------------------------------------------
// Edge interleavings: lifecycle stamps under preemption, rejection, and
// degenerate workloads.

/// The preempt-then-timeout interleaving: request 0 decodes alone until
/// request 1 — arriving at step 4, full attention, sized to fill the whole
/// pool once admitted — starves behind it and, with a pressure window of 3,
/// parks it at step 7 after 8 committed tokens. Request 0's deadline (10)
/// then expires while it is parked: the engine sheds deadlines before
/// admission pressure each step, so it never resumes.
std::vector<Request> preempt_then_timeout_requests() {
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(32, 0);
  requests[0].gen.max_new_tokens = 16;
  requests[0].gen.cache_ratio = 0.5;
  requests[0].deadline_steps = 10;  // expires while parked
  requests[1].id = 1;
  requests[1].prompt = make_prompt(32, 1);
  requests[1].gen.max_new_tokens = 8;
  // Full attention: once admitted, request 1 occupies the whole pool
  // (32 + 8 tokens = 10 blocks), so the parked victim cannot resume
  // before its deadline.
  requests[1].gen.cache_ratio = 1.0;
  requests[1].arrival_step = 4;  // starved behind request 0
  return requests;
}

EngineConfig preempt_then_timeout_config() {
  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.paged.block_tokens = 8;
  ec.paged.capacity_blocks = 10;  // one 32-token prompt fits, not two
  ec.preempt.queue_pressure_steps = 3;
  ec.preempt.min_victim_age_steps = 2;
  return ec;
}

/// Fault injector that lets the first `allow` operations of kind `op`
/// succeed and vetoes every one after — deterministic exhaustion.
class FailOpsAfter final : public mem::FaultInjector {
 public:
  FailOpsAfter(mem::FaultOp op, std::size_t allow) : op_(op), allow_(allow) {}
  bool should_fail(mem::FaultOp op) override {
    if (op != op_) return false;
    return calls_.fetch_add(1, std::memory_order_relaxed) >= allow_;
  }

 private:
  const mem::FaultOp op_;
  const std::size_t allow_;
  std::atomic<std::size_t> calls_{0};
};

TEST(ServeTimeline, PreemptThenTimeoutKeepsOrderedStamps) {
  // The victim's timeline must show kPreempted then kFinished (no
  // kResumed), and the distilled TTFT from its pre-park tokens survives.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  Engine engine(m, preempt_then_timeout_config());

  const auto responses = engine.run(preempt_then_timeout_requests());
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
  // The victim's pre-park eviction decisions count although it left
  // while queued.
  EXPECT_GT(victim.eviction.decisions, 0u);
  expect_accounting_matches_responses(engine, responses);
}

TEST(ServeTimeline, PreemptThenRefusedReadmissionCountsEvictions) {
  // The same interleaving without the deadline, and every block
  // reservation after the first two admissions vetoed: the parked victim
  // is refused re-admission until the scheduler's retry cap rejects it
  // through take_rejected(). Its pre-park eviction decisions still count.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  std::vector<Request> requests = preempt_then_timeout_requests();
  requests[0].deadline_steps = 0;
  Engine engine(m, preempt_then_timeout_config());
  FailOpsAfter injector(mem::FaultOp::kReserve, /*allow=*/2);
  engine.set_fault_injector(&injector);

  const auto responses = engine.run(requests);
  engine.set_fault_injector(nullptr);
  ASSERT_EQ(responses.size(), 2u);
  const Response& victim = responses[0];
  ASSERT_EQ(victim.finish, FinishReason::kRejected);
  EXPECT_TRUE(victim.timeline.has(TimelineEventKind::kPreempted));
  EXPECT_FALSE(victim.timeline.has(TimelineEventKind::kResumed));
  EXPECT_GT(victim.eviction.decisions, 0u);
  expect_accounting_matches_responses(engine, responses);
  EXPECT_EQ(engine.pool()->stats().used_blocks, 0u);
  EXPECT_EQ(engine.pool()->stats().reserved_blocks, 0u);
}

/// References held on the pool's blocks right now: the sum of every
/// carved block's refcount.
std::size_t total_refs(const mem::BlockPool& pool) {
  std::size_t refs = 0;
  const std::size_t carved = pool.stats().allocated_blocks;
  for (std::size_t id = 0; id < carved; ++id) {
    refs += pool.refcount(mem::BlockRef{static_cast<std::uint32_t>(id)});
  }
  return refs;
}

TEST(ServeTimeline, ParkReleasesSharedReferencesLikeAFinish) {
  // With the prefix cache on, request 0 inserts its prompt prefix and
  // then shares those blocks with the index, so Keyformer's evictions
  // drop rows there (without copying a block). It is parked after 8
  // tokens and times out. Its twin — request 0 alone, timing out at step
  // 7 with the same 8 tokens under the same max_new_tokens (so the same
  // t/T schedule) — finishes without a park. A park drops the caches like
  // a finish does: after either run the index holds the only reference
  // to each of its blocks, and neither run copied one.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec = preempt_then_timeout_config();
  ec.prefix.enabled = true;
  ec.prefix.max_blocks = 6;
  ec.paged.capacity_blocks = 16;

  Engine parked_engine(m, ec);
  const auto parked = parked_engine.run(preempt_then_timeout_requests());
  ASSERT_EQ(parked.size(), 2u);
  ASSERT_EQ(parked[0].finish, FinishReason::kTimeout);
  EXPECT_EQ(parked[0].preemptions, 1u);
  EXPECT_EQ(parked[0].tokens.size(), 8u);

  Request twin = preempt_then_timeout_requests()[0];
  twin.deadline_steps = 7;
  Engine twin_engine(m, ec);
  const auto alone = twin_engine.run({&twin, 1});
  ASSERT_EQ(alone[0].finish, FinishReason::kTimeout);
  EXPECT_EQ(alone[0].preemptions, 0u);
  EXPECT_EQ(alone[0].tokens, parked[0].tokens);

  EXPECT_GT(parked[0].eviction.decisions, 0u);
  EXPECT_EQ(alone[0].eviction.decisions, parked[0].eviction.decisions);
  for (const Engine* engine : {&parked_engine, &twin_engine}) {
    EXPECT_EQ(engine->stats().prefix_cow_copies, 0u);
    const std::size_t held = engine->prefix_index()->blocks_held();
    EXPECT_GT(held, 0u);
    EXPECT_EQ(engine->pool()->stats().used_blocks, held);
    EXPECT_EQ(total_refs(*engine->pool()), held);
  }
}

/// EngineStats' counts and per-run peaks: everything but the timings and
/// the engine-lifetime latency distributions.
constexpr std::size_t EngineStats::*kRunCounts[] = {
    &EngineStats::steps,
    &EngineStats::decoded_tokens,
    &EngineStats::prefilled_tokens,
    &EngineStats::max_batch,
    &EngineStats::max_blocks_in_use,
    &EngineStats::pool_peak_used_blocks,
    &EngineStats::pool_capacity_blocks,
    &EngineStats::prefix_hits,
    &EngineStats::prefix_misses,
    &EngineStats::prefix_tokens_reused,
    &EngineStats::prefix_blocks_shared,
    &EngineStats::prefix_cow_copies,
    &EngineStats::preemptions,
    &EngineStats::timeouts,
    &EngineStats::rejections,
    &EngineStats::resume_replayed_tokens,
    &EngineStats::reservation_retries,
    &EngineStats::alloc_failures,
    &EngineStats::eviction_decisions,
    &EngineStats::evicted_tokens,
    &EngineStats::kept_tokens,
};

TEST(ServeTimeline, StatsArePerRunOnAReusedEngine) {
  // stats() views one run even when the engine has run before: the
  // second of two identical paged runs (prefix cache off, one
  // preemption each) reports exactly what a fresh engine's only run
  // does, while the registry's counters hold both runs.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  const std::vector<Request> requests = preempt_then_timeout_requests();

  Engine fresh(m, preempt_then_timeout_config());
  fresh.run(requests);
  const EngineStats once = fresh.stats();
  ASSERT_EQ(once.preemptions, 1u);
  ASSERT_GT(once.decoded_tokens, 0u);

  Engine reused(m, preempt_then_timeout_config());
  reused.run(requests);
  reused.run(requests);
  const EngineStats second = reused.stats();
  for (std::size_t i = 0; i < std::size(kRunCounts); ++i) {
    EXPECT_EQ(second.*kRunCounts[i], once.*kRunCounts[i]) << "field " << i;
  }
  EXPECT_EQ(second.max_fragmentation, once.max_fragmentation);
  EXPECT_EQ(reused.metrics().counter("sched.preempted").value(),
            2 * once.preemptions);
  EXPECT_EQ(reused.metrics().counter("serve.decoded_tokens").value(),
            2 * once.decoded_tokens);
}

/// The value of Prometheus sample `name` in `text`; -1 when absent.
double prometheus_sample(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1.0;
}

TEST(ServeTimeline, PrometheusExportsEveryEngineCount) {
  // One paged run with the prefix cache touching every count: requests 0
  // and 1 contend for a small pool, each inserting its prompt prefix,
  // evicting rows of the shared blocks, being parked, and resuming by
  // adopting a cached prefix (a per-prompt hit) and replaying its tokens.
  // Request 2 times out in the queue and request 3 (empty prompt) is
  // rejected. Each count's kf_*_total sample must equal stats(). No block
  // is ever copied, so there is no copy counter to export.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec = preempt_then_timeout_config();
  ec.prefix.enabled = true;
  ec.prefix.max_blocks = 6;
  ec.paged.capacity_blocks = 16;
  std::vector<Request> requests = preempt_then_timeout_requests();
  requests[0].deadline_steps = 0;
  requests.resize(4);
  requests[2].id = 2;
  requests[2].prompt = make_prompt(32, 2);
  requests[2].arrival_step = 5;
  requests[2].max_queue_steps = 1;
  requests[3].id = 3;
  Engine engine(m, ec);
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].finish, FinishReason::kLength);
  EXPECT_EQ(responses[1].finish, FinishReason::kLength);

  const EngineStats st = engine.stats();
  const std::string text = obs::to_prometheus(engine.metrics());
  const std::pair<const char*, std::size_t> counts[] = {
      {"kf_serve_decoded_tokens_total", st.decoded_tokens},
      {"kf_serve_prefilled_tokens_total", st.prefilled_tokens},
      {"kf_serve_replayed_tokens_total", st.resume_replayed_tokens},
      {"kf_serve_timeouts_total", st.timeouts},
      {"kf_serve_rejections_total", st.rejections},
      {"kf_serve_prefix_hit_prompts_total", st.prefix_hits},
      {"kf_serve_prefix_miss_prompts_total", st.prefix_misses},
      {"kf_serve_prefix_reused_tokens_total", st.prefix_tokens_reused},
      {"kf_serve_prefix_shared_blocks_total", st.prefix_blocks_shared},
  };
  for (const auto& [name, value] : counts) {
    EXPECT_GT(value, 0u) << name;
    EXPECT_EQ(prometheus_sample(text, name), static_cast<double>(value))
        << name;
  }
  EXPECT_EQ(st.prefix_cow_copies, 0u);
  EXPECT_EQ(prometheus_sample(text, "kf_pool_cow_copies_total"), -1.0);
}

TEST(ServeTimeline, StatsAreLiveMidRun) {
  // stats() read inside a run (an attention observer fires on the engine
  // thread) already shows the pool's peak, and its decoded-token count
  // moves from one decode step to the next while the one sequence still
  // decodes. Its prefix insert shared its first blocks with the index and
  // its evictions dropped rows there, yet no block is ever copied.
  ModelConfig cfg = tiny_config();
  Transformer m(cfg);
  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.paged.block_tokens = 8;
  ec.prefix.enabled = true;
  Engine engine(m, ec);
  std::vector<Request> requests(1);
  requests[0].prompt = make_prompt(32, 0);
  requests[0].gen.max_new_tokens = 8;
  requests[0].gen.cache_ratio = 0.5;

  std::size_t decode_calls = 0;
  std::size_t peak_used = 0;
  std::size_t cow_copies = 0;
  std::vector<std::size_t> decoded_seen;  // each distinct live value
  m.set_observer([&](const model::AttentionObservation& o) {
    if (o.is_prompt) return;
    ++decode_calls;
    const EngineStats st = engine.stats();
    peak_used = std::max(peak_used, st.pool_peak_used_blocks);
    cow_copies = std::max(cow_copies, st.prefix_cow_copies);
    if (decoded_seen.empty() || decoded_seen.back() != st.decoded_tokens) {
      decoded_seen.push_back(st.decoded_tokens);
    }
  });
  const auto responses = engine.run(requests);
  m.set_observer({});
  ASSERT_EQ(responses[0].finish, FinishReason::kLength);
  ASSERT_GT(decode_calls, 0u);
  EXPECT_GT(peak_used, 0u);
  EXPECT_GT(responses[0].eviction.decisions, 0u);
  ASSERT_GE(decoded_seen.size(), 2u);
  EXPECT_TRUE(std::is_sorted(decoded_seen.begin(), decoded_seen.end()));
  EXPECT_LT(decoded_seen.back(), engine.stats().decoded_tokens);
  EXPECT_EQ(cow_copies, 0u);
  EXPECT_EQ(engine.stats().prefix_cow_copies, 0u);
}

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
  ec.paged.block_tokens = 8;
  ec.preempt.max_per_sequence = 2;
  Engine engine(m, ec);
  // Admission + prefill of a 16-token prompt needs 2 blocks x 2 layers;
  // allow those plus a few decode appends, then fail everything.
  FailOpsAfter injector(mem::FaultOp::kAllocate, /*allow=*/6);
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
