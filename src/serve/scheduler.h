// Continuous-batching admission control.
//
// The scheduler holds sequences in a FIFO waiting queue (ordered by
// arrival) and an active set that decodes together. Sequences join the
// active set as soon as they have arrived AND fit both limits:
//   - max_batch_size: concurrent sequences (GEMM batch width);
//   - KV memory: admission *reserves real blocks* in the engine's
//     BlockPool. The reservation covers the sequence's whole-block demand
//     across all its layers (ceil per layer: internal fragmentation is
//     charged, not hidden), so pool capacity is an exact physical memory
//     cap: an admitted sequence can always allocate what it was charged.
//     When the sequence has a pinned prefix-cache match (seq.prefix_*),
//     admission charges only the *unshared* demand; the shared prefix
//     blocks are resident and paid for by the index.
//   A joining sequence is charged its transient prefill peak
//   (admission_cost_blocks: the full prompt is resident per layer until
//   the policy trims it) and settles down to its steady-state cost once
//   prefill completes. Because a budgeted sequence's steady cost is
//   ~cache_ratio * prompt_len, reducing the cache ratio admits
//   proportionally more sequences into the same memory: the mechanism
//   behind Keyformer's Table 1 "bigger batch" row.
// Sequences leave (release) when they finish, immediately returning their
// blocks for the next waiting sequence: join/leave mid-stream.
//
// Admission is strict FIFO: the head of the queue blocks later arrivals
// even if those would fit, so large requests cannot starve. A sequence
// whose admission demand exceeds the whole (bounded) pool could never
// run, so it is marked kRejected and parked on the rejected list
// (take_rejected()) instead of deadlocking the queue; admission moves on
// to the next waiting sequence.
//
// Robustness hooks:
//   - A block reservation that fails after fits() said yes (a TOCTOU
//     against concurrent prefix-index trims/inserts, or an injected
//     fault) rolls the admission back and retries next round; after
//     max_reserve_retries consecutive losses the sequence is rejected so
//     a pool that never grants the claim cannot spin the engine forever.
//   - preempt() is release()'s mid-flight sibling: it frees an active
//     sequence's blocks but re-queues it (keeping its generated tokens)
//     behind every already-arrived waiter, so the starved head gets the
//     freed blocks. pick_victim() chooses who pays: the
//     youngest-by-arrival active sequence old enough (victim-age floor)
//     and under its preemption cap; both bounds guarantee progress.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "serve/sequence.h"

namespace kf::mem {
class BlockPool;
}

namespace kf::obs {
class Counter;
class MetricsRegistry;
}

namespace kf::serve {

struct SchedulerConfig {
  /// Max sequences decoding together; 0 = unlimited.
  std::size_t max_batch_size = 8;
  /// KV memory budget in per-layer tokens summed over the active set;
  /// 0 = unlimited. The scheduler never reads it: Engine sizes its pool
  /// from it (n_layers * ceil(tokens / block_tokens) blocks) when
  /// PagedMemoryConfig::capacity_blocks is 0, and admission reserves
  /// blocks of that pool.
  std::size_t max_concurrent_tokens = 0;
  /// Consecutive failed block reservations (fits() said yes, try_reserve
  /// said no) a sequence tolerates before admission rejects it. Generous:
  /// a genuine TOCTOU loss resolves in one round; only a pathological
  /// injector (or bug) reaches the cap. 0 = retry forever.
  std::size_t max_reserve_retries = 64;
  /// Observability registry for admission counters (sched.admitted /
  /// sched.rejected / sched.preempted / sched.reservation_retries); null
  /// disables them. Must outlive the scheduler.
  obs::MetricsRegistry* metrics = nullptr;
};

class BatchScheduler {
 public:
  /// Admission reserves blocks of `pool`, which must outlive the
  /// scheduler.
  explicit BatchScheduler(mem::BlockPool& pool, SchedulerConfig cfg = {});

  /// Queues a sequence. Callers submit in arrival order (the engine sorts
  /// by arrival_step, then submission order); the queue is strict FIFO.
  /// Requires seq->n_layers > 0 (the block demand unit).
  void submit(Sequence* seq);

  /// Moves every admissible waiting sequence (arrived by `now_step`, fits
  /// both limits) into the active set and returns the newly admitted ones
  /// in admission order, each with its admission block demand reserved. A
  /// sequence whose demand exceeds the whole pool (it could never run) is
  /// marked kRejected and moved to the rejected list instead of blocking
  /// the queue; a reservation lost to a TOCTOU race rolls back and retries
  /// next round (see the header comment).
  std::vector<Sequence*> admit(std::size_t now_step);

  /// Sequences admission rejected since the last call (status kFinished,
  /// finish kRejected, error set). The engine drains this after admit()
  /// and turns each into a Response.
  std::vector<Sequence*> take_rejected();

  /// Parks an active sequence back into the waiting queue: frees its
  /// block reservation exactly like release(), but keeps
  /// its committed tokens and re-queues it (behind already-arrived
  /// waiters, ahead of future arrivals) for recompute-based resume.
  /// Bumps seq->preemptions and stamps seq->queue_enter_step.
  void preempt(Sequence* seq, std::size_t now_step);

  /// The preemption victim admission pressure should evict: the active
  /// sequence with the latest arrival (ties: latest admission) that has
  /// been active at least `min_age_steps` and has fewer than
  /// `max_preemptions` preemptions (0 = uncapped). Null when nobody
  /// qualifies.
  Sequence* pick_victim(std::size_t now_step, std::size_t min_age_steps,
                        std::size_t max_preemptions) const;

  /// Removes a sequence from the waiting queue (deadline shedding);
  /// false when it is not waiting.
  bool remove_waiting(Sequence* seq);

  /// Drops an active sequence's reservation from its admission cost
  /// (transient prefill peak) to its steady-state cost. The engine calls
  /// this once prefill has completed and the policy has trimmed the cache
  /// to budget, freeing the transient blocks for the next admission.
  void settle(Sequence* seq);

  /// Removes a finished sequence from the active set, returning its
  /// reserved blocks to the pool.
  void release(Sequence* seq);

  std::span<Sequence* const> active() const noexcept { return active_; }
  std::size_t active_count() const noexcept { return active_.size(); }
  std::size_t waiting_count() const noexcept { return waiting_.size(); }
  /// The FIFO queue, head first (the engine probes it for prefix-cache
  /// matches before each admission round).
  const std::deque<Sequence*>& waiting() const noexcept { return waiting_; }
  /// Summed reserved blocks of the active set.
  std::size_t blocks_in_use() const noexcept { return blocks_in_use_; }

  /// Arrival step of the queue head (the next sequence to admit), empty
  /// when no sequence is waiting. The engine jumps its clock here when the
  /// active set drains.
  std::optional<std::size_t> next_arrival() const;

 private:
  bool fits(const Sequence& seq) const;
  /// The blocks admission charges `seq`: its unshared demand when a
  /// prefix entry is pinned for it, its full demand otherwise.
  std::size_t demand_blocks(const Sequence& seq) const;
  /// Returns a leaving sequence's block reservation.
  void release_charges(Sequence& seq);

  mem::BlockPool& pool_;
  SchedulerConfig cfg_;
  /// Engine-loop-only state (single writer, no concurrent readers): the
  /// monitoring surface is the registry counters below.
  std::deque<Sequence*> waiting_;
  std::vector<Sequence*> active_;
  /// Admission-rejected sequences awaiting the engine's drain.
  std::vector<Sequence*> rejected_;
  std::size_t blocks_in_use_ = 0;
  /// Registry-owned counters, resolved once in the constructor; null when
  /// cfg_.metrics is null. The engine-loop-only call sites bump them with
  /// one relaxed per-thread add.
  obs::Counter* ctr_admitted_ = nullptr;
  obs::Counter* ctr_rejected_ = nullptr;
  obs::Counter* ctr_preempted_ = nullptr;
  obs::Counter* ctr_retries_ = nullptr;
};

}  // namespace kf::serve
