// The serving engine: continuous batching of independent generation
// requests over one shared model.
//
// Structure (the Table 1 serving stack):
//   Request --> Sequence (own KV caches + own policy instance + sampling
//   state) --> BatchScheduler (admission under a batch-size and KV-memory
//   budget) --> Engine loop:
//       1. admit newly arrived requests that fit, prefilling each
//          (prefill runs one sequence at a time, like the decode-centric
//          continuous-batching servers this models);
//       2. decode ONE token for every active sequence with a single
//          Transformer::step_batch call — per-row projections and
//          per-sequence fused attention, parallel across sequences;
//       3. sample per sequence (greedy + repetition penalty/ban list,
//          identical to generate());
//       4. retire finished sequences, freeing budget so waiting requests
//          join mid-stream.
// The engine clock is the decode-step index; request arrival_step is
// expressed in it, making staggered-arrival runs deterministic.
//
// generate() is a batch-of-one client of this engine and remains
// token-for-token identical to the pre-engine loop.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.h"
#include "core/mutex.h"
#include "kvcache/policy_factory.h"
#include "mem/block_pool.h"
#include "mem/prefix_index.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "serve/scheduler.h"
#include "serve/sequence.h"

namespace kf::obs {
class Monitor;
}

namespace kf::serve {

/// Paged KV memory: the engine owns a sharded mem::BlockPool, sequences
/// get PagedKvCache layers placed on a shard at admission, and the
/// scheduler's budget becomes a real block reservation (see scheduler.h).
struct PagedMemoryConfig {
  bool enabled = false;
  std::size_t n_shards = 1;
  std::size_t block_tokens = 16;
  /// Hard per-shard cap; 0 derives it from the scheduler token budget
  /// (n_layers * ceil(max_concurrent_tokens / block_tokens), split across
  /// shards) or leaves the pool unbounded when that budget is 0 too.
  std::size_t blocks_per_shard = 0;
};

/// Cross-request prefix cache (requires paged memory): prompts sharing a
/// block-aligned prefix adopt one immutable block chain per layer instead
/// of re-prefilling it, copy-on-write when eviction mutates a block. The
/// index lives as long as the engine (it keeps paying off across run()
/// calls); clear_prefix_cache() drops it. Only requests using the
/// engine-built policy participate — the cached score snapshots are
/// policy-specific.
struct PrefixCacheConfig {
  bool enabled = false;
  /// Block budget for the index (entries + shard replicas); LRU entries
  /// are trimmed to fit. 0 = bounded only by pool capacity. When the pool
  /// capacity is derived from the scheduler token budget, this budget is
  /// added on top so caching never shrinks admission capacity.
  std::size_t max_blocks = 0;
  /// Shortest prefix worth indexing, in tokens (default: one pool block).
  std::size_t min_tokens = 0;
};

/// Decode-phase preemption with recompute-based resume. When admission
/// pressure leaves the queue head starved, the engine parks a victim —
/// youngest arrival first — releasing its blocks/budget while keeping its
/// generated tokens; re-admission re-prefills the prompt and replays the
/// parked tokens step by step, which is token-exact (the decode path is
/// bit-exact regardless of batch composition, and policies are
/// deterministic given the sequence seed). The age floor and per-sequence
/// cap bound the recompute overhead and guarantee forward progress: each
/// preemption cycle a victim pays for has committed at least
/// min_victim_age_steps new tokens, at most max_per_sequence times.
struct PreemptionConfig {
  /// Master switch for pressure-triggered preemption. Forced parking on a
  /// mid-decode allocation failure is always on — a sequence holding
  /// emergency (non-pool) memory cannot keep decoding past the cap.
  bool enabled = true;
  /// Steps the queue head must sit arrived-but-unadmitted before the
  /// engine preempts a victim for it.
  std::size_t queue_pressure_steps = 8;
  /// Steps a sequence must have been active before it qualifies as a
  /// victim.
  std::size_t min_victim_age_steps = 4;
  /// Preemptions one sequence tolerates; past the cap it is no longer
  /// victimized, and a forced park instead rejects it. 0 = unlimited
  /// (not recommended: a permanently failing pool could then park the
  /// same sequence forever).
  std::size_t max_per_sequence = 8;
};

struct EngineConfig {
  SchedulerConfig scheduler;
  /// Built per sequence for requests that don't bring their own policy.
  kv::PolicyConfig policy;
  PagedMemoryConfig paged;
  PrefixCacheConfig prefix;
  PreemptionConfig preempt;
};

/// Aggregate counters of one run() call.
struct EngineStats {
  std::size_t steps = 0;             ///< decode iterations executed
  std::size_t decoded_tokens = 0;    ///< tokens produced by decode steps
  std::size_t prefilled_tokens = 0;  ///< prompt tokens processed
  std::size_t max_batch = 0;         ///< peak concurrent sequences
  std::size_t max_tokens_in_use = 0; ///< peak summed charged KV tokens
                                     ///< (includes transient prefill peaks)
  // Paged-pool visibility (all zero when paging is disabled):
  std::size_t max_blocks_in_use = 0;     ///< peak scheduler-reserved blocks
  std::size_t pool_peak_used_blocks = 0; ///< peak physically held blocks
  std::size_t pool_capacity_blocks = 0;  ///< aggregate cap (0 = unbounded)
  /// Worst per-step internal fragmentation: 1 - live_tokens /
  /// (used_blocks * block_tokens) — the whole-block surcharge paging pays.
  double max_fragmentation = 0.0;
  // Prefix-cache visibility (all zero when the prefix cache is disabled):
  std::size_t prefix_hits = 0;    ///< prompts that adopted a shared chain
  std::size_t prefix_misses = 0;  ///< eligible prompts that found none
  /// Prompt tokens whose prefill was skipped (replayed from shared K/V).
  std::size_t prefix_tokens_reused = 0;
  /// Block adoptions served by sharing instead of fresh allocation
  /// (layers x chain blocks, summed over hits).
  std::size_t prefix_blocks_shared = 0;
  /// Shared blocks privately copied when eviction/append first wrote them.
  std::size_t prefix_cow_copies = 0;
  // Robustness counters (published mid-run like everything else):
  std::size_t preemptions = 0;  ///< sequences parked mid-decode
  std::size_t timeouts = 0;     ///< kTimeout finishes (deadline/queue cap)
  std::size_t rejections = 0;   ///< kRejected finishes (containment)
  /// Generated tokens recomputed by preempt/resume replays — the decode
  /// work paid twice, the price of recompute-based resume.
  std::size_t resume_replayed_tokens = 0;
  /// Admissions rolled back because a block reservation failed after
  /// fits() (TOCTOU losses against prefix-index activity, injected
  /// faults); each retried cleanly on a later round.
  std::size_t reservation_retries = 0;
  /// Block allocations that fell back to emergency heap memory (the
  /// no-throw decode path); every one forces a park or retirement.
  std::size_t alloc_failures = 0;
  // Live-occupancy fields (current values at the publish point, not
  // peaks — what a Monitor's per-batch occupancy series samples):
  std::size_t active_sequences = 0;   ///< batch size at the last step
  std::size_t waiting_sequences = 0;  ///< queue depth at the last step
  /// Internal fragmentation at the last step (see max_fragmentation).
  double cur_fragmentation = 0.0;
  // Eviction introspection, accumulated at retirement from each
  // sequence's EvictionTelemetry (replayed resume decisions included):
  std::size_t eviction_decisions = 0;  ///< compaction events executed
  std::size_t evicted_tokens = 0;      ///< cache rows dropped
  std::size_t kept_tokens = 0;         ///< cache rows retained at decisions
  double prefill_seconds = 0.0;
  double decode_seconds = 0.0;  ///< summed batch-step walls
  // Latency distributions (seconds), extracted from the engine's metrics
  // histograms at every publish point. The histograms accumulate over the
  // engine's *lifetime* — a monitoring surface, like the prefix index —
  // so across several run() calls these summarize all of them.
  obs::Percentiles ttft;          ///< first token minus first-seen-queued
  obs::Percentiles inter_token;   ///< gaps between committed decode tokens
  obs::Percentiles queue_wait;    ///< admission minus queued (per admission)
  obs::Percentiles step_latency;  ///< per batched decode step wall
  /// CPU ISA the kernel dispatcher routed this run to (cpu::isa_name of
  /// the active ISA — "scalar"/"avx2"/"avx512"), so throughput artifacts
  /// stay comparable across heterogeneous CI runners. Static-storage
  /// string; safe to copy around.
  const char* isa = "";

  /// Fraction of prefix-eligible prompts that hit the shared index.
  double prefix_hit_rate() const {
    const std::size_t total = prefix_hits + prefix_misses;
    return total > 0 ? static_cast<double>(prefix_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Aggregate decode throughput across all sequences (the bench metric:
  /// total decode-produced tokens per decode-phase second).
  double decode_tokens_per_s() const {
    return decoded_tokens > 0 && decode_seconds > 0.0
               ? static_cast<double>(decoded_tokens) / decode_seconds
               : 0.0;
  }
};

class Engine {
 public:
  explicit Engine(model::Transformer& model, EngineConfig cfg = {});

  const EngineConfig& config() const noexcept { return cfg_; }
  /// The engine's metrics registry: serving counters and the latency
  /// histograms behind EngineStats' percentile fields. The scheduler,
  /// block pool, and prefix index it owns record here too. Internally
  /// synchronized — safe to read from a monitoring thread mid-run.
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// Snapshot of the most recent run()'s counters. run() accumulates
  /// into run-local state and publishes under the stats mutex — at start,
  /// after every decode step, and at finish — so this is safe to call
  /// from any thread and tracks a run in flight at decode-step
  /// granularity: the monitoring hook the async front-end will poll.
  EngineStats stats() const KF_EXCLUDES(stats_mu_);
  /// The engine-owned block pool; null unless cfg.paged.enabled. Between
  /// run() calls the only blocks off the free lists are the prefix
  /// index's retained chains (leak-checked by tests).
  const mem::BlockPool* pool() const noexcept { return pool_.get(); }

  /// The engine-owned prefix index; null unless cfg.prefix.enabled.
  const mem::PrefixIndex* prefix_index() const noexcept {
    return prefix_index_.get();
  }

  /// Drops every cached prefix chain (their blocks and reservations return
  /// to the pool). Harmless when the prefix cache is disabled.
  void clear_prefix_cache() {
    if (prefix_index_ != nullptr) prefix_index_->clear();
  }

  /// Drives every request to completion under continuous batching.
  /// Responses are returned in the order of `requests` (not completion
  /// order). Every request terminates with a definite finish reason:
  /// invalid or un-servable requests (empty prompt, mismatched external
  /// KV state, shared kv_state/policy instances, demand above a whole
  /// shard) are contained as kRejected responses with an error string —
  /// they never throw, and the rest of the batch keeps decoding.
  std::vector<Response> run(std::span<const Request> requests);

  /// Aggregate eviction telemetry over the engine's lifetime: every
  /// retired sequence's per-(layer,head) eviction histograms merged into
  /// one (see kvcache/eviction_telemetry.h). Copied under the stats
  /// mutex — safe to call from a monitoring thread mid-run; sequences
  /// still in flight contribute at their retirement.
  kv::EvictionTelemetry eviction_report() const KF_EXCLUDES(stats_mu_);

  /// Installs (nullptr: clears) a fault injector on the engine-owned
  /// block pool — the chaos-testing hook (see serve/fault.h). No-op when
  /// paged memory is disabled. The injector must outlive its installation.
  void set_fault_injector(mem::FaultInjector* injector) noexcept {
    if (pool_ != nullptr) pool_->set_fault_injector(injector);
  }

 private:
  /// Prefill + first-token selection for a newly admitted sequence. With
  /// the prefix cache on: adopt a matching shared chain and prefill only
  /// the suffix, or chunk the prefill at the shareable boundary and insert
  /// the prefix chain into the index for the requests behind this one.
  /// Re-admission of a preempted sequence (seq.tokens non-empty) prefills
  /// the prompt the same way, then replays the parked tokens through
  /// single-sequence decode steps — exact recomputation of the evicted
  /// state. Counters accrue into `stats`, the run's local accumulator.
  void start_sequence(Sequence& seq, std::size_t now_step, EngineStats& stats);
  /// Prefix boundary this sequence would index on a miss (block-aligned,
  /// below the prompt end, at least the index minimum); 0 = don't index.
  std::size_t insertable_prefix_tokens(const Sequence& seq) const;
  /// Publishes a run's accumulator as the visible stats() snapshot.
  void publish_stats(const EngineStats& stats) KF_EXCLUDES(stats_mu_);

  model::Transformer& model_;
  EngineConfig cfg_;
  /// Guards the published stats snapshot: run() works on a local
  /// accumulator and publishes here, so readers never see a torn update.
  mutable Mutex stats_mu_;
  EngineStats stats_ KF_GUARDED_BY(stats_mu_);
  /// Engine-lifetime eviction aggregate (see eviction_report()).
  kv::EvictionTelemetry eviction_agg_ KF_GUARDED_BY(stats_mu_);
  /// Declared before the pool/index so it outlives them on destruction
  /// (they hold counter pointers into it).
  obs::MetricsRegistry metrics_;
  /// Latency histograms, resolved once (registry lookups lock).
  obs::Histogram& hist_ttft_;
  obs::Histogram& hist_inter_token_;
  obs::Histogram& hist_queue_wait_;
  obs::Histogram& hist_step_;
  std::unique_ptr<mem::BlockPool> pool_;
  std::unique_ptr<mem::PrefixIndex> prefix_index_;
};

/// Registers the standard serving probes on `monitor`: engine progress
/// counters (steps, decoded/prefilled tokens, evicted tokens), per-batch
/// occupancy (active/waiting sequences), pool used/reserved blocks and
/// fragmentation, prefix-cache hit rate, plus per-window rate/percentile
/// histogram probes for the step and inter-token latency distributions.
/// Every probe reads a thread-safe surface (Engine::stats(),
/// BlockPool::stats(), registry histograms), so the monitor may poll a
/// run in flight. `engine` must outlive the polling.
void add_engine_probes(obs::Monitor& monitor, Engine& engine);

}  // namespace kf::serve
