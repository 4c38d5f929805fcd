// The serving engine: continuous batching of independent generation
// requests over one shared model.
//
// Structure (the Table 1 serving stack):
//   Request --> Sequence (own KV caches + own policy instance + sampling
//   state) --> BatchScheduler (admission by reserved pool blocks under a
//   batch-size cap) --> Engine::run, whose loop phases are methods of a
//   per-run state:
//       intake   materialize sequences, reject un-servable requests, submit
//                the rest in arrival order; then, each step:
//       arrive   jump an idle clock to the next arrival, stamp kQueued;
//       shed     time out expired sequences (before admission);
//       admit    admit arrivals that fit, prefilling each one at a time like
//                the decode-centric continuous-batching servers this models;
//       decode   ONE token for every active sequence in one step_batch call
//                (per-sequence fused attention, parallel across sequences),
//                sampled per sequence by generate()'s model::select_next;
//       respond  once all finished, distill each sequence into a Response.
//   Every sequence leaves through one exit that frees its blocks (waiting
//   requests join mid-stream); it and park drop the sequence's KV state.
// The engine clock is the decode-step index; request arrival_step is
// expressed in it, making staggered-arrival runs deterministic.
//
// model::generate() is the plain single-sequence loop; a one-request run
// gives the same tokens (test_serve_engine pins it).
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

/// KV block memory. The engine owns a mem::BlockPool of `block_tokens`-
/// token blocks; every sequence draws its layer caches from it, and
/// admission reserves each sequence's blocks (see scheduler.h).
struct PagedMemoryConfig {
  /// Read by nothing: admission always reserves pool blocks. Kept only
  /// until the benchmark stops assigning it (ROADMAP item 6), then
  /// deleted.
  bool enabled = false;
  std::size_t block_tokens = 16;
  /// Hard pool cap; 0 derives it from the scheduler token budget
  /// (n_layers * ceil(max_concurrent_tokens / block_tokens)) or leaves
  /// the pool unbounded when that budget is 0 too.
  std::size_t capacity_blocks = 0;
};

/// Cross-request prefix cache: prompts sharing a block-aligned prefix
/// adopt one immutable block chain per layer instead of re-prefilling it.
/// Eviction drops an adopted row without writing its block and releases a
/// block once it holds no kept row, so no block is ever copied. The index
/// lives as long as the engine (it keeps paying off across run() calls);
/// clear_prefix_cache() drops it. The engine refuses the cache for damped
/// scores and for shared-scope Keyformer, whose scores do not decompose
/// at the prefix boundary.
struct PrefixCacheConfig {
  bool enabled = false;
  /// Block budget for the index's entries; LRU entries are trimmed to
  /// fit. 0 = bounded only by pool capacity. When the pool capacity is
  /// derived from the scheduler token budget, this budget is added on top
  /// so caching never shrinks admission capacity.
  std::size_t max_blocks = 0;
  /// Shortest prefix worth indexing, in tokens (default: one pool block).
  std::size_t min_tokens = 0;
};

/// Decode-phase preemption with recompute-based resume. When admission
/// pressure leaves the queue head starved, the engine parks a victim —
/// youngest arrival first — releasing its blocks/budget while keeping its
/// generated tokens; re-admission re-prefills the prompt and replays the
/// parked tokens in one multi-token decode call, which evicts after each
/// row as the original steps did. That is token-exact: the call equals
/// one-token decode steps bit for bit, the decode path is bit-exact
/// regardless of batch composition, and policies are deterministic given
/// the sequence seed. The age floor and per-sequence
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
  /// Built once per sequence.
  kv::PolicyConfig policy;
  PagedMemoryConfig paged;
  PrefixCacheConfig prefix;
  PreemptionConfig preempt;
};

/// One run() call's figures, as Engine::stats() reads them from the
/// metrics registry: counts and peaks since the run began.
struct EngineStats {
  std::size_t steps = 0;             ///< decode iterations executed
  std::size_t decoded_tokens = 0;    ///< tokens produced by decode steps
  std::size_t prefilled_tokens = 0;  ///< prompt tokens processed
  std::size_t max_batch = 0;         ///< peak concurrent sequences
  // The engine pool:
  std::size_t max_blocks_in_use = 0;     ///< peak scheduler-reserved blocks
                                         ///< (includes prefill peaks)
  std::size_t pool_peak_used_blocks = 0; ///< peak physically held blocks
  std::size_t pool_capacity_blocks = 0;  ///< pool cap (0 = unbounded)
  /// Worst per-step internal fragmentation: 1 - private rows / (private
  /// blocks * block_tokens), summed over every active cache — the
  /// whole-block surcharge paging pays. Shared prefix rows and blocks
  /// count on neither side.
  double max_fragmentation = 0.0;
  // Prefix-cache visibility (all zero when the prefix cache is disabled):
  std::size_t prefix_hits = 0;    ///< prompts that adopted a shared chain
  std::size_t prefix_misses = 0;  ///< eligible prompts that found none
  /// Prompt tokens whose prefill was skipped (replayed from shared K/V).
  std::size_t prefix_tokens_reused = 0;
  /// Block adoptions served by sharing instead of fresh allocation
  /// (layers x chain blocks, summed over hits).
  std::size_t prefix_blocks_shared = 0;
  /// Always 0: no path copies a shared block since eviction drops shared
  /// rows in place. Kept only because servebench's serve_bench.cpp reads
  /// it (as mem.cow_copies); the next benchmark change drops both.
  std::size_t prefix_cow_copies = 0;
  // Robustness counters:
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
  // Eviction introspection, counted when each sequence finishes —
  // whatever its exit path — from its EvictionTelemetry (decisions made
  // before a park and replayed resume decisions included):
  std::size_t eviction_decisions = 0;  ///< compaction events executed
  std::size_t evicted_tokens = 0;      ///< cache rows dropped
  std::size_t kept_tokens = 0;         ///< cache rows retained at decisions
  double decode_seconds = 0.0;  ///< summed batch-step walls
  // Latency distributions (seconds) from the engine's metrics histograms.
  // The histograms accumulate over the engine's *lifetime* — a monitoring
  // surface, like the prefix index — so across several run() calls these
  // summarize all of them.
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
  explicit Engine(const model::Transformer& model, EngineConfig cfg = {});

  const EngineConfig& config() const noexcept { return cfg_; }
  /// The engine's metrics registry: every serving count, gauge and
  /// latency histogram, recorded once where it happens (by the engine and
  /// its scheduler, block pool and prefix index). Internally synchronized
  /// — safe to read from a monitoring thread mid-run.
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The most recent run()'s figures, built from the registry and the
  /// pool on each call. Safe from any thread, and live while a run is in
  /// flight: the monitoring hook the async front-end will poll.
  EngineStats stats() const KF_EXCLUDES(stats_mu_);
  /// The engine-owned block pool (never null). Between run() calls the
  /// only blocks off the free list are the prefix index's retained chains
  /// (leak-checked by tests).
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
  /// invalid or un-servable requests (model::prompt_error's cases, demand
  /// above the whole pool) are contained as kRejected responses with an
  /// error string — they never throw, and the rest of the batch keeps
  /// decoding.
  std::vector<Response> run(std::span<const Request> requests);

  /// Aggregate eviction telemetry over the engine's lifetime: every
  /// retired sequence's eviction counts and histograms merged into one
  /// (see kvcache/eviction_telemetry.h). Copied under the stats
  /// mutex — safe to call from a monitoring thread mid-run; sequences
  /// still in flight contribute at their retirement.
  kv::EvictionTelemetry eviction_report() const KF_EXCLUDES(stats_mu_);

  /// Installs (nullptr: clears) a fault injector on the engine-owned
  /// block pool — the chaos-testing hook (see serve/fault.h). The
  /// injector must outlive its installation.
  void set_fault_injector(mem::FaultInjector* injector) noexcept {
    pool_->set_fault_injector(injector);
  }

 private:
  /// One run() call's state; its methods are the loop's phases (see the
  /// file comment). Defined in engine.cpp.
  class Run;

  /// EngineStats straight from the registry and the pool: its counts are
  /// engine-lifetime totals, which stats() offsets by run_start_.
  EngineStats read_metrics() const;

  const model::Transformer& model_;
  EngineConfig cfg_;
  /// Guards what run() writes for other threads besides the registry.
  mutable Mutex stats_mu_;
  /// read_metrics() and the ISA when the current run() began.
  EngineStats run_start_ KF_GUARDED_BY(stats_mu_);
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
/// Counter series are engine-lifetime. Every probe reads a thread-safe
/// surface (registry metrics, BlockPool::stats()), so the monitor may
/// poll a run in flight. `engine` must outlive the polling.
void add_engine_probes(obs::Monitor& monitor, Engine& engine);

}  // namespace kf::serve
