// One sequence in the serving engine: its request parameters, committed
// tokens, per-layer KV caches, eviction-policy instance, and per-phase
// timing — everything that used to live implicitly in the generate() loop,
// lifted into a value so N sequences can share one model.
//
// Generation-loop contract (token-for-token identical to generate()):
//   - prefill produces the first token from the last prompt logit row;
//   - each decode step feeds the newest committed token and commits the
//     next one; a sequence finishes when it hits eos or max_new_tokens,
//     and the finishing token is never fed back.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kvcache/eviction_telemetry.h"
#include "kvcache/kv_state.h"
#include "kvcache/policy.h"
#include "model/generator.h"
#include "obs/timeline.h"

namespace kf::mem {
class PrefixEntry;
}

namespace kf::serve {

using model::Token;

/// Why a sequence stopped. Every request submitted to Engine::run()
/// terminates with a definite reason — containment (kRejected) and
/// deadline enforcement (kTimeout) replace the pre-robustness behavior of
/// throwing out of the run and killing the whole batch.
enum class FinishReason {
  kRunning,
  kLength,    ///< hit max_new_tokens
  kEos,       ///< emitted the stop token
  kRejected,  ///< un-servable (invalid request, oversized, repeated
              ///< allocation failure); Response::error says why
  kTimeout,   ///< deadline_steps / max_queue_steps expired
};

std::string to_string(FinishReason reason);

/// One generation request submitted to the Engine.
struct Request {
  std::uint64_t id = 0;
  std::vector<Token> prompt;
  model::GenerationConfig gen;
  /// Engine step (decode iteration — the engine's discrete clock) at which
  /// the request becomes visible to the scheduler; 0 = present at start.
  std::size_t arrival_step = 0;
  /// Prompt prefix length the caller marks as shareable across requests
  /// (the end of a system prompt / few-shot context — an explicit cache
  /// breakpoint). 0 = let the engine index the whole prompt minus its last
  /// token. Rounded down to whole pool blocks; only consulted when the
  /// engine's prefix cache is enabled.
  std::size_t shared_prefix_hint = 0;
  /// End-to-end deadline in engine steps counted from arrival_step: once
  /// the clock reaches arrival_step + deadline_steps the sequence finishes
  /// with kTimeout (keeping any tokens generated so far) and frees its
  /// budget. 0 = no deadline.
  std::size_t deadline_steps = 0;
  /// Queue-wait cap in engine steps: a request still waiting this many
  /// steps after it arrived is shed with kTimeout instead of growing the
  /// queue. 0 = wait forever.
  std::size_t max_queue_steps = 0;
};

/// A completed request.
struct Response {
  std::uint64_t id = 0;
  std::vector<Token> tokens;  ///< generated tokens (prompt excluded)
  std::size_t prompt_len = 0;
  kv::CacheBudget budget;
  std::vector<std::size_t> final_cache_sizes;  ///< per layer, at finish
  std::size_t peak_cache_tokens = 0;
  FinishReason finish = FinishReason::kLength;
  /// Human-readable cause when finish == kRejected / kTimeout; empty
  /// otherwise.
  std::string error;
  /// Times this sequence was preempted (parked mid-decode and resumed by
  /// recompute). Its token stream is identical either way.
  std::size_t preemptions = 0;
  std::size_t arrival_step = 0;
  std::size_t first_decode_step = 0;  ///< step at which prefill first ran
  std::size_t finish_step = 0;
  double prefill_seconds = 0.0;  ///< prompt phase incl. first-token select
  /// Sum of the walls of every batch step this sequence was active in —
  /// its decode latency under whatever batch it shared the engine with.
  double decode_seconds = 0.0;

  /// Wall-clock lifecycle events the engine stamped for this request
  /// (queued, admitted, prefill start/end, first token, preempted/resumed,
  /// finished) — the raw record behind the latency fields below.
  obs::RequestTimeline timeline;
  /// Time to first token: first generated token committed minus the moment
  /// the engine first saw the request (0 when no token was produced).
  double ttft_seconds = 0.0;
  /// First admission minus queued (0 when never admitted).
  double queue_wait_seconds = 0.0;
  /// Wall-clock gaps between consecutive committed decode tokens.
  obs::StreamStats inter_token;

  /// Digest of the eviction decisions this request's policy executed:
  /// tokens kept/evicted, the relative-position distribution of evicted
  /// tokens (the serving-time fig-3 sketch), and score-at-eviction
  /// percentiles. All zero for non-evicting policies. Includes decisions
  /// re-executed by preemption-resume replays.
  kv::EvictionSummary eviction;

  /// See model::decode_throughput() (same rule as GenerationResult).
  double decode_tokens_per_s() const;
};

/// Lifecycle of a sequence inside the engine.
enum class SequenceStatus { kWaiting, kActive, kFinished };

/// Engine-internal per-sequence state. Public fields: the Engine and
/// BatchScheduler drive it, and tests poke it directly.
struct Sequence {
  std::uint64_t id = 0;
  std::vector<Token> prompt;
  model::GenerationConfig gen;
  std::size_t arrival_step = 0;

  SequenceStatus status = SequenceStatus::kWaiting;
  FinishReason finish = FinishReason::kRunning;
  /// Cause recorded when the engine rejects or times out the sequence.
  std::string error;
  kv::CacheBudget budget;
  std::vector<Token> tokens;  ///< committed generated tokens

  /// Deadline / queue-wait caps copied from the Request (0 = none).
  std::size_t deadline_steps = 0;
  std::size_t max_queue_steps = 0;

  /// Times this sequence was preempted (its blocks released, its tokens
  /// parked). Bounded by the engine's per-sequence cap so parking always
  /// converges to a definite finish.
  std::size_t preemptions = 0;
  /// Step the scheduler last moved this sequence into the active set;
  /// the victim-age floor reads it (a just-admitted sequence is not worth
  /// preempting: it has produced almost nothing since its prefill).
  std::size_t admitted_step = 0;
  /// Step this sequence last (re)entered the waiting queue: arrival for a
  /// fresh submit, the preemption step for a parked one. Admission
  /// pressure is measured from here.
  std::size_t queue_enter_step = 0;
  /// Consecutive admission rounds lost to a failed block reservation
  /// (fits() said yes, try_reserve lost the race — or a fault injector
  /// vetoed it). Cleared on successful admission; capped by the scheduler
  /// so a pool that never grants the claim rejects instead of spinning.
  std::size_t reserve_failures = 0;

  /// The layer caches, drawn from the engine's pool while the sequence is
  /// active (null while it waits), and its eviction policy, built from the
  /// engine's policy description (score state is per sequence).
  std::unique_ptr<kv::SequenceKvState> kv;
  std::unique_ptr<kv::EvictionPolicy> policy;

  std::size_t peak_cache_tokens = 0;
  std::size_t first_decode_step = 0;
  std::size_t finish_step = 0;
  double prefill_seconds = 0.0;
  double decode_seconds = 0.0;

  /// Lifecycle stamps accumulating toward Response::timeline.
  obs::RequestTimeline timeline;
  /// Wall clock of the kQueued stamp (the engine first saw the sequence
  /// arrived) — reset by a preemption so re-admission queue waits measure
  /// the park.
  double queued_seconds = 0.0;
  /// Wall clock of the last committed token (prefill first token included);
  /// 0 until one exists. Decode steps measure inter-token gaps from here.
  double last_token_seconds = 0.0;
  /// Wall-clock gaps between consecutive committed decode tokens.
  obs::StreamStats inter_token;
  /// Per-sequence eviction-decision sink: policy observe() runs per
  /// sequence inside the batched decode step's parallel_for, so sequences
  /// cannot share one. Shaped by the engine at sequence creation, merged
  /// into the engine-lifetime aggregate and distilled onto the Response
  /// at retirement.
  kv::EvictionTelemetry eviction;

  /// Per-layer cache sizes captured at retirement. The engine records
  /// these the moment a sequence finishes because its caches are torn
  /// down right then — their blocks must return to the pool while other
  /// sequences are still running, not at end of run.
  std::vector<std::size_t> final_cache_sizes;

  /// Scheduler admission cost in per-layer cache tokens: the steady-state
  /// decode footprint. A budgeted sequence holds k tokens plus the
  /// transient append slot; full attention grows to its final length.
  /// This is where cache_ratio buys batch size: at ratio r the cost is
  /// ~r * prompt_len, so 1/r times as many sequences fit one memory
  /// budget — Table 1's bigger-batch row.
  std::size_t cost_tokens() const {
    // A budget only caps memory when the policy actually evicts: a
    // non-evicting policy (full attention) grows to prompt+gen per layer
    // no matter what cache_ratio the request asked for, and charging it
    // k+1 would let the scheduler over-commit the pool.
    const bool evicting =
        budget.max_tokens > 0 && (policy == nullptr || policy->evicts());
    if (evicting) return budget.max_tokens + 1;
    return prompt.size() + gen.max_new_tokens;
  }

  /// Admission cost in per-layer cache tokens: prefill materializes the
  /// full prompt in every layer before the policy trims it to budget, so a
  /// joining sequence transiently needs max(prompt_len, steady-state)
  /// headroom. The scheduler reserves this (in blocks) at admit() and
  /// settles down to cost_tokens() once prefill completes, keeping the
  /// pool capacity a true memory cap rather than a steady-state-only
  /// proxy.
  std::size_t admission_cost_tokens() const {
    return std::max(prompt.size(), cost_tokens());
  }

  /// Decoder layers this sequence materializes caches for (set by the
  /// engine from the model config; block demands are per layer).
  std::size_t n_layers = 0;

  /// Blocks the scheduler currently holds reserved for this sequence in
  /// the block pool (0 while not active).
  std::size_t reserved_blocks = 0;

  /// cost_tokens() expressed in pool blocks: every layer rounds its token
  /// footprint up to whole blocks — the internal-fragmentation surcharge
  /// paged memory pays.
  std::size_t cost_blocks(std::size_t block_tokens) const {
    return n_layers *
           ((cost_tokens() + block_tokens - 1) / block_tokens);
  }

  /// admission_cost_tokens() in pool blocks (the transient prefill peak).
  std::size_t admission_cost_blocks(std::size_t block_tokens) const {
    return n_layers *
           ((admission_cost_tokens() + block_tokens - 1) / block_tokens);
  }

  /// Prefix-cache match discovered before admission: blocks per layer
  /// already resident in the shared index (charged to the index, not this
  /// sequence) and the pinned entry backing them. Cleared once the prefix
  /// is adopted at prefill.
  const mem::PrefixEntry* prefix_entry = nullptr;
  std::size_t prefix_blocks_per_layer = 0;
  /// Index revision at this sequence's last missed probe: a miss stays a
  /// miss until the entry set changes, so the engine skips re-probing
  /// in between. SIZE_MAX = never probed.
  std::uint64_t prefix_probed_revision =
      static_cast<std::uint64_t>(-1);
  /// Request-declared shareable-prefix boundary (see Request).
  std::size_t shared_prefix_hint = 0;

  /// admission_cost_blocks() minus what the shared prefix already pays
  /// for, valid while the entry is pinned (its chain resident). Per layer
  /// the unshared transient demand is the fresh suffix blocks plus an
  /// allowance of min(prefix blocks, steady footprint), floored at the
  /// steady footprint decode settles into; a non-evicting sequence never
  /// holds more than the chain, so its shared blocks are simply not
  /// charged. Eviction no longer copies shared blocks (it drops their rows
  /// in place), so the allowance is now an upper bound: it covers the
  /// shared blocks an adopter may come to hold alone once the index trims
  /// the entry, which the cache then folds into its dense layout.
  std::size_t unshared_admission_blocks(std::size_t block_tokens) const {
    const std::size_t bt = block_tokens;
    const std::size_t full_layer = (admission_cost_tokens() + bt - 1) / bt;
    std::size_t layer = full_layer;
    const std::size_t prefix_toks = prefix_blocks_per_layer * bt;
    if (prefix_blocks_per_layer > 0 && prefix_toks < prompt.size()) {
      const std::size_t suffix_blocks =
          (prompt.size() - prefix_toks + bt - 1) / bt;
      const std::size_t steady_layer = (cost_tokens() + bt - 1) / bt;
      const bool evicting =
          budget.max_tokens > 0 && (policy == nullptr || policy->evicts());
      const std::size_t want =
          evicting ? std::max(suffix_blocks +
                                  std::min(prefix_blocks_per_layer,
                                           steady_layer),
                              steady_layer)
                   : full_layer - std::min(full_layer,
                                           prefix_blocks_per_layer);
      layer = std::min(full_layer, want);
    }
    return n_layers * layer;
  }

  /// Recent committed tokens the repetition penalty applies to.
  std::span<const Token> recent_window() const {
    const std::size_t n = tokens.size();
    const std::size_t w =
        gen.repetition_window == 0 ? n : std::min(n, gen.repetition_window);
    return {tokens.data() + (n - w), w};
  }

  /// Commits the next token and applies the finish rules (eos, then
  /// length). Mirrors the generate() loop ordering exactly: the checks run
  /// before the token would ever be fed back.
  void commit(Token next) {
    tokens.push_back(next);
    if (gen.eos_token >= 0 && next == gen.eos_token) {
      status = SequenceStatus::kFinished;
      finish = FinishReason::kEos;
      return;
    }
    if (tokens.size() >= gen.max_new_tokens) {
      status = SequenceStatus::kFinished;
      finish = FinishReason::kLength;
    }
  }

  bool finished() const { return status == SequenceStatus::kFinished; }

  /// Token fed at the next decode step (the newest committed token).
  Token feed_token() const { return tokens.back(); }
  /// 1-based decode step t of the next step (Algorithm 1's t).
  std::size_t next_t() const { return tokens.size(); }
  /// Original sequence position of the token fed at the next step.
  std::size_t next_position() const {
    return prompt.size() + tokens.size() - 1;
  }
};

}  // namespace kf::serve
