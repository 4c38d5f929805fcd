#include "serve/engine.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/timing.h"
#include "cpu/cpu_isa.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace kf::serve {

using obs::TimelineEventKind;

Engine::Engine(model::Transformer& model, EngineConfig cfg)
    : model_(model),
      cfg_(std::move(cfg)),
      hist_ttft_(metrics_.histogram("serve.ttft_seconds")),
      hist_inter_token_(metrics_.histogram("serve.inter_token_seconds")),
      hist_queue_wait_(metrics_.histogram("serve.queue_wait_seconds")),
      hist_step_(metrics_.histogram("serve.step_seconds")) {
  cfg_.scheduler.metrics = &metrics_;
  if (cfg_.prefix.enabled) {
    // The bit-exactness contract of prefix adoption (shared-prefix decode
    // identical to unshared) relies on score accumulation decomposing at
    // the prefix boundary. Exponential damping breaks that: a chunked
    // prompt phase damps the prefix contributions once more than a
    // monolithic one. Shared-scope Keyformer breaks it too: its ranking at
    // layer l sums every layer observed so far, and a prompt chunked at
    // the boundary has already added the prefix rows' later layers. Refuse
    // loudly rather than drift silently.
    const bool keyformer = cfg_.policy.kind == kv::PolicyKind::kKeyformer;
    const bool damped =
        (keyformer && cfg_.policy.keyformer.score.damping < 1.0) ||
        (cfg_.policy.kind == kv::PolicyKind::kH2O &&
         cfg_.policy.h2o_damping < 1.0);
    if (damped) {
      throw std::invalid_argument(
          "the prefix cache requires damping == 1.0 (prefix-boundary score "
          "snapshots do not compose with exponential damping)");
    }
    if (keyformer &&
        cfg_.policy.keyformer.scope == kv::ScoreScope::kShared) {
      throw std::invalid_argument(
          "the prefix cache requires per-layer Keyformer scores (shared-"
          "scope scores do not decompose at the prefix boundary)");
    }
  }
  if (cfg_.paged.block_tokens == 0) {
    throw std::invalid_argument("the engine's pool requires block_tokens > 0");
  }
  mem::BlockPoolConfig pc;
  pc.block_tokens = cfg_.paged.block_tokens;
  pc.n_heads = model_.config().n_heads;
  pc.d_head = model_.config().d_head();
  pc.metrics = &metrics_;
  pc.capacity_blocks = cfg_.paged.capacity_blocks;
  if (pc.capacity_blocks == 0 && cfg_.scheduler.max_concurrent_tokens > 0) {
    // Translate the token budget into physical capacity: the budget is
    // per-layer tokens across the active set, so the pool holds n_layers
    // times its block equivalent. A bounded prefix cache rides on top, so
    // caching prefixes never eats into the admission capacity the budget
    // promised.
    pc.capacity_blocks =
        model_.config().n_layers *
            ((cfg_.scheduler.max_concurrent_tokens + pc.block_tokens - 1) /
             pc.block_tokens) +
        (cfg_.prefix.enabled ? cfg_.prefix.max_blocks : 0);
  }
  pool_ = std::make_unique<mem::BlockPool>(pc);
  if (cfg_.prefix.enabled) {
    mem::PrefixIndexConfig ic;
    ic.n_layers = model_.config().n_layers;
    ic.max_blocks = cfg_.prefix.max_blocks;
    ic.min_tokens = cfg_.prefix.min_tokens;
    ic.metrics = &metrics_;
    prefix_index_ = std::make_unique<mem::PrefixIndex>(*pool_, ic);
  }
}

namespace {

/// The registry counter behind each EngineStats count ('*' sums a family:
/// one counter per eviction policy). stats() reports each as its change
/// since the run began, as it does steps and decode_seconds: the
/// serve.step_seconds histogram's count and sum.
struct CountField {
  std::size_t EngineStats::*field;
  const char* metric;
};
constexpr CountField kCountFields[] = {
    {&EngineStats::decoded_tokens, "serve.decoded_tokens"},
    {&EngineStats::prefilled_tokens, "serve.prefilled_tokens"},
    {&EngineStats::resume_replayed_tokens, "serve.replayed_tokens"},
    {&EngineStats::timeouts, "serve.timeouts"},
    {&EngineStats::rejections, "serve.rejections"},
    {&EngineStats::prefix_hits, "serve.prefix_hit_prompts"},
    {&EngineStats::prefix_misses, "serve.prefix_miss_prompts"},
    {&EngineStats::prefix_tokens_reused, "serve.prefix_reused_tokens"},
    {&EngineStats::prefix_blocks_shared, "serve.prefix_shared_blocks"},
    {&EngineStats::preemptions, "sched.preempted"},
    {&EngineStats::reservation_retries, "sched.reservation_retries"},
    {&EngineStats::alloc_failures, "pool.emergency_blocks"},
    {&EngineStats::eviction_decisions, "evict.*.decisions"},
    {&EngineStats::evicted_tokens, "evict.*.tokens_evicted"},
    {&EngineStats::kept_tokens, "evict.*.tokens_kept"},
};

/// Raises a per-run peak gauge; the engine thread is its only writer.
void raise_peak(obs::Gauge& peak, double value) {
  if (value > peak.value()) peak.set(value);
}

}  // namespace

EngineStats Engine::read_metrics() const {
  EngineStats st;
  for (const CountField& f : kCountFields) {
    st.*f.field = metrics_.counter_sum(f.metric);
  }
  st.steps = hist_step_.count();
  st.decode_seconds = hist_step_.sum();
  const auto peak = [&](const char* name) {
    return static_cast<std::size_t>(metrics_.gauge_value(name));
  };
  st.max_batch = peak("serve.max_batch");
  st.max_blocks_in_use = peak("serve.max_blocks_in_use");
  st.max_fragmentation = metrics_.gauge_value("serve.max_fragmentation");
  const mem::PoolStats ps = pool_->stats();
  st.pool_peak_used_blocks = ps.peak_used_blocks;
  st.pool_capacity_blocks = ps.capacity_blocks;
  st.ttft = hist_ttft_.snapshot();
  st.inter_token = hist_inter_token_.snapshot();
  st.queue_wait = hist_queue_wait_.snapshot();
  st.step_latency = hist_step_.snapshot();
  return st;
}

EngineStats Engine::stats() const {
  // Under the lock a run cannot start between the two reads.
  const LockGuard lock(stats_mu_);
  EngineStats st = read_metrics();
  for (const CountField& f : kCountFields) st.*f.field -= run_start_.*f.field;
  st.steps -= run_start_.steps;
  st.decode_seconds -= run_start_.decode_seconds;
  st.isa = run_start_.isa;
  return st;
}

kv::EvictionTelemetry Engine::eviction_report() const {
  const LockGuard lock(stats_mu_);
  return eviction_agg_;
}

/// One run() call: the sequences, the scheduler, the step clock and the
/// registry metrics its phases write. Every sequence leaves through
/// finish(); finish() and park() drop its KV state.
class Engine::Run {
 public:
  explicit Run(Engine& engine)
      : engine_(engine),
        model_(engine.model_),
        cfg_(engine.cfg_),
        pool_(*engine.pool_),
        prefix_index_(engine.prefix_index_.get()),
        sched_(*engine.pool_, engine.cfg_.scheduler) {
    pool_.reset_peaks();
    for (obs::Gauge* peak : {&max_batch_, &max_blocks_, &max_fragmentation_}) {
      peak->set(0.0);
    }
    const LockGuard lock(engine_.stats_mu_);
    engine_.run_start_ = engine_.read_metrics();
    engine_.run_start_.isa = cpu::isa_name(cpu::active_isa());
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  void intake(std::span<const Request> requests) {
    const model::ModelConfig& mc = model_.config();
    for (const Request& req : requests) {
      Sequence& s = seqs_.emplace_back();
      s.id = req.id;
      s.prompt = req.prompt;
      s.gen = req.gen;
      s.arrival_step = req.arrival_step;
      s.deadline_steps = req.deadline_steps;
      s.max_queue_steps = req.max_queue_steps;
      s.n_layers = mc.n_layers;
      s.budget = kv::make_budget(s.prompt.empty() ? 1 : s.prompt.size(),
                                 s.gen.cache_ratio, s.gen.recent_ratio);
      // Shape the eviction-decision sink once per sequence; its counters
      // accumulate across preemption-resume replays (decisions executed,
      // not unique tokens) and are distilled onto the Response at finish.
      s.eviction.begin_sequence(s.prompt.size() + s.gen.max_new_tokens);
      s.policy = kv::make_policy(cfg_.policy);
      s.policy->set_eviction_sink(&s.eviction);
      s.shared_prefix_hint = req.shared_prefix_hint;
      // Containment: an invalid request becomes a kRejected Response with an
      // error string instead of an exception killing the whole batch.
      if (const char* error =
              model::prompt_error(mc, req.prompt, req.gen.max_new_tokens)) {
        finish(s, FinishReason::kRejected, error);
      }
      // The others get their state from the engine's pool at admission,
      // once the scheduler has reserved its blocks.
    }

    // Submit the survivors in arrival order (stable: ties keep request
    // order).
    std::vector<std::size_t> order(seqs_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return seqs_[a].arrival_step < seqs_[b].arrival_step;
                     });
    for (const std::size_t i : order) {
      if (!seqs_[i].finished()) sched_.submit(&seqs_[i]);
    }
  }

  bool pending() const { return finished_ < seqs_.size(); }

  void arrive() {
    // Idle engine: jump the clock to the next arrival.
    if (sched_.active_count() == 0) {
      const auto next = sched_.next_arrival();
      if (next.has_value() && *next > step_) step_ = *next;
    }
    // Timeline origin: stamp kQueued the first time the engine sees a
    // sequence arrived (the waiting queue is arrival-ordered, so stop at the
    // first future arrival). TTFT and queue wait measure from this stamp.
    const double t_now = now_seconds();
    for (Sequence* seq : sched_.waiting()) {
      if (seq->arrival_step > step_) break;
      if (!seq->timeline.has(TimelineEventKind::kQueued)) {
        seq->queued_seconds = t_now;
        seq->timeline.mark(TimelineEventKind::kQueued, t_now);
      }
    }
  }

  // Deadline enforcement in the engine's virtual clock: shed expired
  // sequences — waiting ones that overstayed deadline_steps or
  // max_queue_steps, active ones past deadline_steps (they keep their
  // generated-so-far tokens) — so a stuck queue frees budget instead of
  // growing. Runs before admission, so the freed budget is admissible this
  // same step.
  void shed() {
    const std::vector<Sequence*> waiting(sched_.waiting().begin(),
                                         sched_.waiting().end());
    for (Sequence* seq : waiting) {
      if (past_deadline(*seq)) {
        finish(*seq, FinishReason::kTimeout,
               "deadline_steps expired while queued");
      } else if (seq->max_queue_steps > 0 && step_ >= seq->queue_enter_step &&
                 step_ - seq->queue_enter_step >= seq->max_queue_steps) {
        finish(*seq, FinishReason::kTimeout,
               "queue wait exceeded max_queue_steps");
      }
    }
    const std::vector<Sequence*> active(sched_.active().begin(),
                                        sched_.active().end());
    for (Sequence* seq : active) {
      if (past_deadline(*seq)) {
        finish(*seq, FinishReason::kTimeout, "deadline_steps expired");
      }
    }
  }

  // Admit + prefill newly eligible sequences; a sequence that finishes
  // during prefill (eos first token, max_new_tokens 0) leaves at once,
  // freeing its budget for the next waiting request this same step.
  void admit() {
    bool admitted_any = true;
    while (admitted_any) {
      admitted_any = false;
      KF_TRACE_SCOPE("admit");
      probe_waiting();
      for (Sequence* seq : sched_.admit(step_)) {
        admitted_any = true;
        const double t_admit = now_seconds();
        seq->timeline.mark(TimelineEventKind::kAdmitted, t_admit);
        if (seq->timeline.has(TimelineEventKind::kQueued)) {
          engine_.hist_queue_wait_.record(t_admit - seq->queued_seconds);
        }
        // Layer caches drawing the blocks the scheduler just reserved.
        seq->kv = std::make_unique<kv::SequenceKvState>(
            pool_, model_.config().n_layers);
        // The admission charge covers the transient prefill peak; record
        // it before settling so max_blocks_in_use reflects true memory.
        record_peak_use();
        start_sequence(*seq);
        if (!seq->finished() && kv_alloc_failed(*seq)) {
          // Prefill (or resume replay) outgrew its reservation into
          // emergency memory — an injected fault or a capacity race.
          // Park it for a later, fully pool-backed retry.
          park_or_reject(*seq);
          continue;
        }
        {
          KF_TRACE_SCOPE("settle");
          sched_.settle(seq);
        }
        if (seq->finished()) finish(*seq, seq->finish);
      }
      // Admission rejections (demand above the whole pool, or a reservation
      // denied past the retry cap) arrive finished; the queue behind them
      // keeps moving.
      for (Sequence* seq : sched_.take_rejected()) finish(*seq, seq->finish);
      if (!admitted_any) {
        const auto head = sched_.next_arrival();
        const bool head_ready = head.has_value() && *head <= step_;
        // Idle engine, arrived head, no admission: the prefix cache's
        // retained blocks are squeezing the pool — reclaim and retry.
        if (head_ready && sched_.active_count() == 0 && trim_for_progress()) {
          admitted_any = true;
        } else if (head_ready && pressure_preempt()) {
          // Starved head under admission pressure: a victim was parked;
          // retry admission against the freed budget.
          admitted_any = true;
        }
      }
    }
  }

  // One decode step for the whole batch. The step wall covers the model
  // call AND per-sequence sampling/bookkeeping, so decode_seconds is the
  // true decode-phase latency (a sequence's prefill_seconds likewise
  // includes its first-token selection).
  void decode_step() {
    const std::vector<Sequence*> active(sched_.active().begin(),
                                        sched_.active().end());
    if (active.empty()) return;  // everything admitted so far finished
    record_occupancy(active);

    const double t0 = now_seconds();
    slots_.clear();
    for (const Sequence* seq : active) {
      model::DecodeSlot slot;
      slot.token = seq->feed_token();
      slot.position = seq->next_position();
      slot.t = seq->next_t();
      slot.total_steps = seq->gen.max_new_tokens;
      slot.state = seq->kv.get();
      slot.policy = seq->policy.get();
      slots_.push_back(slot);
    }
    const Tensor logits = model_.step_batch(slots_);
    {
      KF_TRACE_SCOPE("sample");
      for (std::size_t b = 0; b < active.size(); ++b) {
        Sequence* seq = active[b];
        seq->peak_cache_tokens =
            std::max(seq->peak_cache_tokens, seq->kv->max_layer_tokens());
        const Token next = model::select_greedy(
            logits.row(b), seq->recent_window(), seq->gen.repetition_penalty,
            seq->gen.banned_tokens);
        seq->commit(next);
      }
    }
    decoded_.add(active.size());
    const double dt = now_seconds() - t0;
    engine_.hist_step_.record(dt);
    // Every active sequence committed one token this step: one shared
    // timestamp bounds the per-sequence inter-token gaps.
    const double t_tokens = t0 + dt;
    for (Sequence* seq : active) {
      if (seq->last_token_seconds > 0.0) {
        const double gap = t_tokens - seq->last_token_seconds;
        engine_.hist_inter_token_.record(gap);
        seq->inter_token.add(gap);
      }
      seq->last_token_seconds = t_tokens;
    }
    for (Sequence* seq : active) {
      seq->decode_seconds += dt;
      if (seq->finished()) {
        finish(*seq, seq->finish);
      } else if (kv_alloc_failed(*seq)) {
        // The step completed exactly (emergency memory holds real rows),
        // but the sequence is over its physical budget: park it and
        // recompute under a fresh reservation.
        park_or_reject(*seq);
      }
    }
    ++step_;
  }

  std::vector<Response> respond() {
    active_.set(0.0);  // run drained: occupancy series settle to 0
    waiting_.set(0.0);

    std::vector<Response> responses;
    responses.reserve(seqs_.size());
    for (Sequence& seq : seqs_) {
      Response r;
      r.id = seq.id;
      r.tokens = std::move(seq.tokens);
      r.prompt_len = seq.prompt.size();
      r.budget = seq.budget;
      r.final_cache_sizes = std::move(seq.final_cache_sizes);
      r.peak_cache_tokens = seq.peak_cache_tokens;
      r.finish = seq.finish;
      r.error = std::move(seq.error);
      r.preemptions = seq.preemptions;
      r.arrival_step = seq.arrival_step;
      r.first_decode_step = seq.first_decode_step;
      r.finish_step = seq.finish_step;
      r.prefill_seconds = seq.prefill_seconds;
      r.decode_seconds = seq.decode_seconds;
      r.timeline = std::move(seq.timeline);
      r.ttft_seconds = r.timeline.ttft_seconds();
      r.queue_wait_seconds = r.timeline.queue_wait_seconds();
      r.inter_token = seq.inter_token;
      r.eviction = seq.eviction.summary();
      responses.push_back(std::move(r));
    }
    return responses;
  }

 private:
  // Prefill + first-token selection for a newly admitted sequence. With
  // the prefix cache on: adopt a matching shared chain and prefill only
  // the suffix, or chunk the prefill at the shareable boundary and insert
  // the prefix chain into the index for the requests behind this one.
  // Re-admission of a preempted sequence (seq.tokens non-empty) prefills
  // the prompt the same way, then replays the parked tokens through
  // single-sequence decode steps — exact recomputation of the evicted
  // state.
  void start_sequence(Sequence& seq) {
    // Re-admission after a preemption: the prompt re-prefills exactly like
    // the first time (policies reset in begin_sequence and are deterministic
    // per sequence), then the parked tokens replay below.
    const bool resume = !seq.tokens.empty();
    KF_TRACE_SCOPE(resume ? "resume_prefill" : "prefill");
    seq.policy->set_budget(seq.budget);
    kv::SequenceInfo info;
    info.prompt_len = seq.prompt.size();
    info.total_steps = seq.gen.max_new_tokens;
    info.n_layers = model_.config().n_layers;
    info.n_heads = model_.config().n_heads;
    seq.policy->begin_sequence(info);

    const double t0 = now_seconds();
    if (resume) seq.timeline.mark(TimelineEventKind::kResumed, t0);
    seq.timeline.mark(TimelineEventKind::kPrefillStart, t0);
    const std::span<const Token> prompt = seq.prompt;
    Tensor prompt_logits;

    // Resolve the prefix-cache match: the entry pinned at the admission
    // probe, or — new this round — one an earlier sequence of the same
    // admission batch just inserted.
    const mem::PrefixEntry* entry = nullptr;
    if (prefix_index_ != nullptr) {
      entry = seq.prefix_entry != nullptr
                  ? seq.prefix_entry
                  : prefix_index_->lookup(prompt, prompt.size() - 1);
    }

    if (entry != nullptr) {
      // Hit: the prefix K/V replays from the shared chain; only the suffix
      // runs. adopt() seeded the boundary scores and noise rows.
      prefix_index_->adopt(entry, *seq.kv);
      unpin_prefix(seq);  // the caches now hold the chain themselves
      const std::size_t m = entry->tokens();
      prompt_logits = model_.prefill_continue(
          *seq.kv, prompt.subspan(m), m, *seq.policy, seq.gen.max_new_tokens);
      prefilled_.add(prompt.size() - m);
      prefix_hits_.add();
      prefix_reused_.add(m);
      prefix_shared_.add(model_.config().n_layers * entry->blocks_per_layer());
    } else {
      const std::size_t m =
          prefix_index_ != nullptr ? insertable_prefix_tokens(seq) : 0;
      if (m > 0) {
        // Miss worth caching: chunk the prefill at the shareable boundary.
        // Chunk 1 runs with the budget masked so nothing evicts mid-prompt;
        // the suffix chunk restores it and evicts once over the full prompt
        // — the same single eviction, over the same accumulated scores, a
        // monolithic prefill performs (rows and scores are bit-exact; see
        // prefill_continue).
        const kv::CacheBudget real_budget = seq.policy->budget();
        seq.policy->set_budget(kv::CacheBudget{});
        model_.prefill_continue(*seq.kv, prompt.first(m), 0, *seq.policy,
                                seq.gen.max_new_tokens);
        prefilled_.add(m);
        seq.policy->set_budget(real_budget);
        prefix_index_->insert(prompt.first(m), *seq.kv);
        prompt_logits = model_.prefill_continue(
            *seq.kv, prompt.subspan(m), m, *seq.policy, seq.gen.max_new_tokens);
        prefilled_.add(prompt.size() - m);
        prefix_misses_.add();
      } else {
        prompt_logits = model_.prefill(*seq.kv, prompt, *seq.policy,
                                       seq.gen.max_new_tokens);
        prefilled_.add(prompt.size());
      }
    }

    seq.peak_cache_tokens = std::max(seq.peak_cache_tokens, prompt.size());
    if (!resume) seq.first_decode_step = step_;

    seq.timeline.mark(TimelineEventKind::kPrefillEnd, now_seconds());

    if (resume) {
      KF_TRACE_SCOPE("resume_replay");
      // Replay the committed tokens through the ordinary decode path:
      // tokens[0] came from the prompt logits (already committed), each
      // later tokens[i] from feeding tokens[i-1] at decode step i. The
      // logits are recomputed and discarded — only the KV/score state the
      // eviction policy built alongside them matters, and this stepwise
      // replay reproduces it exactly (a prompt-phase prefill over the same
      // tokens would evict once at the end instead of once per step).
      for (std::size_t i = 1; i < seq.tokens.size(); ++i) {
        model_.decode(*seq.kv, seq.tokens[i - 1], seq.prompt.size() + i - 1,
                      i, seq.gen.max_new_tokens, *seq.policy);
      }
      replayed_.add(seq.tokens.size() - 1);
      seq.peak_cache_tokens =
          std::max(seq.peak_cache_tokens, seq.kv->max_layer_tokens());
    } else if (seq.gen.max_new_tokens == 0) {
      // Nothing to generate: matches generate(), whose loop never runs.
      seq.status = SequenceStatus::kFinished;
      seq.finish = FinishReason::kLength;
    } else {
      const Token first = model::select_greedy(
          prompt_logits.row(0), seq.recent_window(),
          seq.gen.repetition_penalty, seq.gen.banned_tokens);
      seq.commit(first);
    }
    if (!seq.tokens.empty()) {
      const double t_token = now_seconds();
      // Recorded once per request: a resume replay re-commits old tokens.
      if (!seq.timeline.has(TimelineEventKind::kFirstToken)) {
        seq.timeline.mark(TimelineEventKind::kFirstToken, t_token);
        const bool queued = seq.timeline.has(TimelineEventKind::kQueued);
        engine_.hist_ttft_.record(t_token - (queued ? seq.queued_seconds : t0));
      }
      // Inter-token gaps restart here: after a resume replay the next decode
      // step measures from the replay's end, not across the parked interval.
      seq.last_token_seconds = t_token;
    }
    seq.prefill_seconds += now_seconds() - t0;
  }

  // Prefix boundary this sequence would index on a miss (block-aligned,
  // below the prompt end, at least the index minimum); 0 = don't index.
  std::size_t insertable_prefix_tokens(const Sequence& seq) const {
    const std::size_t bt = pool_.block_tokens();
    // At least one prompt token must stay outside the prefix: the first
    // generated token comes from the last prompt row's logits, which must be
    // computed, not replayed.
    std::size_t want = seq.prompt.size() - 1;
    if (seq.shared_prefix_hint > 0) {
      want = std::min(want, seq.shared_prefix_hint);
    }
    const std::size_t m = (want / bt) * bt;
    return m >= prefix_index_->config().min_tokens ? m : 0;
  }

  // Admission-time prefix probe: pin a matching shared chain for every
  // waiting eligible sequence so (a) the scheduler charges only the
  // unshared demand and (b) the chain cannot be trimmed between the
  // reduced charge and the adoption it promised.
  void probe_waiting() {
    if (prefix_index_ == nullptr) return;
    for (Sequence* seq : sched_.waiting()) {
      if (seq->prefix_entry != nullptr) continue;
      // A previous miss stays a miss until the entry set changes; skip
      // the longest-prefix probe until the index's revision moves.
      if (seq->prefix_probed_revision == prefix_index_->revision()) continue;
      seq->prefix_probed_revision = prefix_index_->revision();
      const mem::PrefixEntry* entry =
          prefix_index_->lookup(seq->prompt, seq->prompt.size() - 1);
      if (entry != nullptr) {
        prefix_index_->pin(entry);
        seq->prefix_entry = entry;
        seq->prefix_blocks_per_layer = entry->blocks_per_layer();
      }
    }
  }

  // Progress guard: with the engine idle and the queue head unable to fit,
  // the index's retained chains are the only reclaimable memory — drop
  // them LRU-first (clearing any waiting sequence's pins on the victim)
  // until the head fits or nothing is left to trim.
  bool trim_for_progress() {
    if (prefix_index_ == nullptr) return false;
    const mem::PrefixEntry* victim =
        prefix_index_->lru_candidate(/*include_pinned=*/false);
    if (victim == nullptr) {
      victim = prefix_index_->lru_candidate(/*include_pinned=*/true);
      if (victim == nullptr) return false;
      for (Sequence* seq : sched_.waiting()) {
        if (seq->prefix_entry == victim) unpin_prefix(*seq);
      }
    }
    // try_drop keeps the pin check and the drop under one index-mutex
    // acquisition: a pin landing in between (ours above are cleared, but
    // external pinners exist) makes this a clean false, never a throw.
    return prefix_index_->try_drop(victim);
  }

  // Admission pressure: the queue head has been starved long enough — park
  // the scheduler's chosen victim so the head can take its budget.
  bool pressure_preempt() {
    if (!cfg_.preempt.enabled) return false;
    if (sched_.waiting().empty()) return false;
    const Sequence* head = sched_.waiting().front();
    if (head->arrival_step > step_) return false;
    if (step_ < head->queue_enter_step + cfg_.preempt.queue_pressure_steps) {
      return false;
    }
    Sequence* victim =
        sched_.pick_victim(step_, cfg_.preempt.min_victim_age_steps,
                           cfg_.preempt.max_per_sequence);
    if (victim == nullptr) return false;
    park(*victim);
    return true;
  }

  // A sequence whose pool refused it memory mid-flight parks for a resume
  // under a fresh reservation — unless it already exhausted its preemption
  // cap, in which case it is contained as kRejected (keeping the tokens
  // generated so far) rather than thrash forever.
  void park_or_reject(Sequence& seq) {
    if (cfg_.preempt.max_per_sequence > 0 &&
        seq.preemptions >= cfg_.preempt.max_per_sequence) {
      finish(seq, FinishReason::kRejected,
             "KV block allocation kept failing after " +
                 std::to_string(seq.preemptions) + " preemptions");
    } else {
      park(seq);
    }
  }

  // Preemption: release everything the sequence holds but keep its
  // committed tokens and re-queue it. Re-admission resumes it by recompute
  // (see start_sequence).
  void park(Sequence& seq) {
    KF_TRACE_SCOPE("preempt.park", "sched");
    KF_TRACE_INSTANT("preempt", "sched");
    const double t_park = now_seconds();
    seq.timeline.mark(TimelineEventKind::kPreempted, t_park);
    // Re-queue waits measure from the park, not the original arrival.
    seq.queued_seconds = t_park;
    seq.kv.reset();
    sched_.preempt(&seq, step_);
  }

  // The one exit, wherever the sequence is: active, waiting (parked or
  // never admitted), rejected by the scheduler, or never submitted. One
  // that already carries its reason (Sequence::commit, a zero-token
  // prefill, a scheduler rejection) passes it back as `reason`.
  void finish(Sequence& seq, FinishReason reason, std::string error = {}) {
    KF_TRACE_SCOPE("retire", "sched");
    if (!seq.finished()) {
      seq.status = SequenceStatus::kFinished;
      seq.finish = reason;
      seq.error = std::move(error);
    }
    seq.finish_step = step_;
    seq.timeline.mark(TimelineEventKind::kFinished, now_seconds());
    unpin_prefix(seq);
    // Fold this sequence's eviction decisions (pre-park ones included) into
    // the engine-lifetime aggregate and the per-policy registry counters.
    if (seq.eviction.decisions() > 0) {
      {
        const LockGuard lock(engine_.stats_mu_);
        engine_.eviction_agg_.merge(seq.eviction);
      }
      const std::string base = "evict." + seq.policy->name();
      obs::MetricsRegistry& reg = engine_.metrics_;
      reg.counter(base + ".decisions").add(seq.eviction.decisions());
      reg.counter(base + ".tokens_evicted").add(seq.eviction.tokens_evicted());
      reg.counter(base + ".tokens_kept").add(seq.eviction.tokens_kept());
    }
    const std::span<Sequence* const> active = sched_.active();
    if (std::find(active.begin(), active.end(), &seq) != active.end()) {
      // Capture what the Response needs from the caches; KV teardown
      // precedes the release so freed blocks return to the pool while the
      // reservation still backs them.
      for (std::size_t l = 0; l < seq.kv->n_layers(); ++l) {
        seq.final_cache_sizes.push_back(seq.kv->layer_size(l));
      }
      seq.kv.reset();
      sched_.release(&seq);
    } else {
      sched_.remove_waiting(&seq);  // a no-op unless it is queued
    }
    if (seq.finish == FinishReason::kTimeout) {
      KF_TRACE_INSTANT("timeout", "sched");
      timeouts_.add();
    } else if (seq.finish == FinishReason::kRejected) {
      KF_TRACE_INSTANT("reject", "sched");
      rejections_.add();
    }
    ++finished_;
  }

  void unpin_prefix(Sequence& seq) {
    if (seq.prefix_entry == nullptr) return;
    prefix_index_->unpin(seq.prefix_entry);
    seq.prefix_entry = nullptr;
    seq.prefix_blocks_per_layer = 0;
  }

  bool past_deadline(const Sequence& seq) const {
    return seq.deadline_steps > 0 &&
           step_ >= seq.arrival_step + seq.deadline_steps;
  }

  // Did any layer outgrow its reservation into emergency heap memory?
  // Latched by the no-throw allocation fallback; checked at every step
  // boundary (an escaping exception inside the parallel decode workers
  // is not an option — it would terminate the process).
  bool kv_alloc_failed(const Sequence& seq) const {
    for (std::size_t l = 0; l < seq.kv->n_layers(); ++l) {
      if (seq.kv->layer(l).alloc_failed()) return true;
    }
    return false;
  }

  void record_peak_use() {
    raise_peak(max_blocks_, static_cast<double>(sched_.blocks_in_use()));
  }

  // Per-batch occupancy: the live gauges a Monitor samples (the engine
  // loop owns the scheduler, so reading waiting() here is within its
  // threading contract).
  void record_occupancy(std::span<Sequence* const> active) {
    active_.set(static_cast<double>(active.size()));
    waiting_.set(static_cast<double>(sched_.waiting().size()));
    raise_peak(max_batch_, static_cast<double>(active.size()));
    record_peak_use();
    // Internal fragmentation this step: tokens actually cached vs the
    // whole-block token slots of the engine's pool holding them. The
    // prefix index's retained chains are excluded — they are deliberate
    // caching, not slack (an adopted chain is double-discounted here, so
    // the measure clamps).
    const std::size_t index_blocks =
        prefix_index_ != nullptr ? prefix_index_->blocks_held() : 0;
    const std::size_t used = pool_.stats().used_blocks;
    const std::size_t used_tokens =
        (used > index_blocks ? used - index_blocks : 0) * pool_.block_tokens();
    if (used_tokens > 0) {
      std::size_t live = 0;
      for (const Sequence* seq : active) live += seq->kv->total_tokens();
      const double frag =
          std::max(0.0, 1.0 - static_cast<double>(live) /
                                  static_cast<double>(used_tokens));
      fragmentation_.set(frag);
      raise_peak(max_fragmentation_, frag);
    }
  }

  Engine& engine_;
  model::Transformer& model_;
  const EngineConfig& cfg_;
  mem::BlockPool& pool_;
  mem::PrefixIndex* const prefix_index_;
  std::deque<Sequence> seqs_;  ///< stable addresses for the scheduler
  BatchScheduler sched_;
  std::size_t step_ = 0;
  std::size_t finished_ = 0;
  std::vector<model::DecodeSlot> slots_;
  // The registry metrics this run writes, resolved once (lookups lock).
  // Prefix hits and misses count prompts, unlike the index's per-lookup
  // prefix.hits/prefix.misses. The max_* peaks restart at zero each run.
  obs::MetricsRegistry& reg_ = engine_.metrics_;
  obs::Counter& decoded_ = reg_.counter("serve.decoded_tokens");
  obs::Counter& prefilled_ = reg_.counter("serve.prefilled_tokens");
  obs::Counter& replayed_ = reg_.counter("serve.replayed_tokens");
  obs::Counter& timeouts_ = reg_.counter("serve.timeouts");
  obs::Counter& rejections_ = reg_.counter("serve.rejections");
  obs::Counter& prefix_hits_ = reg_.counter("serve.prefix_hit_prompts");
  obs::Counter& prefix_misses_ = reg_.counter("serve.prefix_miss_prompts");
  obs::Counter& prefix_reused_ = reg_.counter("serve.prefix_reused_tokens");
  obs::Counter& prefix_shared_ = reg_.counter("serve.prefix_shared_blocks");
  obs::Gauge& active_ = reg_.gauge("serve.active_sequences");
  obs::Gauge& waiting_ = reg_.gauge("serve.waiting_sequences");
  obs::Gauge& fragmentation_ = reg_.gauge("serve.fragmentation");
  obs::Gauge& max_batch_ = reg_.gauge("serve.max_batch");
  obs::Gauge& max_blocks_ = reg_.gauge("serve.max_blocks_in_use");
  obs::Gauge& max_fragmentation_ = reg_.gauge("serve.max_fragmentation");
};

std::vector<Response> Engine::run(std::span<const Request> requests) {
  KF_TRACE_SCOPE("engine.run");
  Run run(*this);
  run.intake(requests);
  while (run.pending()) {
    run.arrive();
    run.shed();
    run.admit();
    run.decode_step();
  }
  return run.respond();
}

void add_engine_probes(obs::Monitor& monitor, Engine& engine) {
  const obs::MetricsRegistry& reg = engine.metrics();
  // Registry probes look their metric up by name on every poll.
  const auto counter = [&](const char* series, const char* metric) {
    monitor.add_probe(series, [&reg, metric] {
      return static_cast<double>(reg.counter_sum(metric));
    });
  };
  const auto gauge = [&](const char* series, const char* metric) {
    monitor.add_probe(series,
                      [&reg, metric] { return reg.gauge_value(metric); });
  };
  obs::Histogram& steps = engine.metrics().histogram("serve.step_seconds");
  monitor.add_probe("engine.steps",
                    [&steps] { return static_cast<double>(steps.count()); });
  counter("engine.decoded_tokens", "serve.decoded_tokens");
  counter("engine.prefilled_tokens", "serve.prefilled_tokens");
  gauge("engine.active_sequences", "serve.active_sequences");
  gauge("engine.waiting_sequences", "serve.waiting_sequences");
  counter("engine.evicted_tokens", "evict.*.tokens_evicted");
  const mem::BlockPool* pool = engine.pool();
  monitor.add_probe("pool.used_blocks", [pool] {
    return static_cast<double>(pool->stats().used_blocks);
  });
  monitor.add_probe("pool.reserved_blocks", [pool] {
    return static_cast<double>(pool->stats().reserved_blocks);
  });
  gauge("pool.fragmentation", "serve.fragmentation");
  if (engine.prefix_index() != nullptr) {
    monitor.add_probe("prefix.hit_rate", [&reg] {
      EngineStats st;
      st.prefix_hits = reg.counter_sum("serve.prefix_hit_prompts");
      st.prefix_misses = reg.counter_sum("serve.prefix_miss_prompts");
      return st.prefix_hit_rate();
    });
  }
  // Per-window latency series (rate + window percentiles) for the two
  // distributions that move every step.
  monitor.add_histogram_probe("step", steps);
  monitor.add_histogram_probe(
      "itl", engine.metrics().histogram("serve.inter_token_seconds"));
}

}  // namespace kf::serve
