#include "serve/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mem/block_pool.h"
#include "mem/prefix_index.h"
#include "obs/metrics.h"

namespace kf::serve {

BatchScheduler::BatchScheduler(SchedulerConfig cfg) : cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    ctr_admitted_ = &cfg_.metrics->counter("sched.admitted");
    ctr_rejected_ = &cfg_.metrics->counter("sched.rejected");
    ctr_preempted_ = &cfg_.metrics->counter("sched.preempted");
    ctr_retries_ = &cfg_.metrics->counter("sched.reservation_retries");
  }
}

void BatchScheduler::submit(Sequence* seq) {
  if (seq == nullptr) throw std::invalid_argument("submit(nullptr)");
  if (cfg_.pool != nullptr && seq->n_layers == 0) {
    throw std::invalid_argument(
        "block-mode scheduling requires seq->n_layers > 0");
  }
  seq->status = SequenceStatus::kWaiting;
  seq->queue_enter_step = seq->arrival_step;
  waiting_.push_back(seq);
}

std::optional<std::size_t> BatchScheduler::pick_shard(
    const std::vector<std::size_t>& candidates, std::size_t demand) const {
  if (candidates.empty()) return std::nullopt;
  // Least loaded: fewest reserved blocks (capacity is uniform per shard,
  // so this equals most-free in bounded mode and still spreads load when
  // the pool is unbounded). Ties break to the lowest id so admission
  // stays deterministic.
  std::size_t best = candidates.front();
  std::size_t best_load = cfg_.pool->shard_stats(best).reserved_blocks;
  for (const std::size_t s : candidates) {
    const std::size_t load = cfg_.pool->shard_stats(s).reserved_blocks;
    if (load < best_load) {
      best = s;
      best_load = load;
    }
  }
  if (cfg_.pool->unreserved_blocks(best) >= demand) return best;
  return std::nullopt;
}

std::optional<BatchScheduler::Placement> BatchScheduler::choose_shard(
    const Sequence& seq) const {
  const std::size_t bt = cfg_.pool->block_tokens();
  const std::size_t n = cfg_.pool->n_shards();
  const std::size_t full = seq.admission_cost_blocks(bt);
  // Prefix affinity first: shards already holding the sequence's shared
  // chain serve it at the unshared demand — both cheaper for the pool and
  // the only placement that keeps chain reads shard-local.
  if (seq.prefix_entry != nullptr && seq.prefix_blocks_per_layer > 0 &&
      cfg_.prefix_index != nullptr) {
    const std::size_t reduced = seq.unshared_admission_blocks(bt);
    std::vector<std::size_t> resident;
    for (std::size_t s = 0; s < n; ++s) {
      if (cfg_.prefix_index->resident_on(seq.prefix_entry, s)) {
        resident.push_back(s);
      }
    }
    if (const auto s = pick_shard(resident, reduced)) {
      return Placement{*s, reduced};
    }
  }
  std::vector<std::size_t> all(n);
  for (std::size_t s = 0; s < n; ++s) all[s] = s;
  if (const auto s = pick_shard(all, full)) return Placement{*s, full};
  return std::nullopt;
}

bool BatchScheduler::fits(const Sequence& seq) const {
  if (cfg_.max_batch_size > 0 && active_.size() >= cfg_.max_batch_size) {
    return false;
  }
  if (cfg_.pool != nullptr) {
    return choose_shard(seq).has_value();
  }
  if (cfg_.max_concurrent_tokens == 0) return true;
  const std::size_t cost = seq.admission_cost_tokens();
  if (tokens_in_use() + cost <= cfg_.max_concurrent_tokens) return true;
  // Oversized sequences (admission cost > whole budget) run solo instead
  // of blocking the queue forever.
  return cost > cfg_.max_concurrent_tokens && active_.empty();
}

std::vector<Sequence*> BatchScheduler::admit(std::size_t now_step) {
  std::vector<Sequence*> admitted;
  while (!waiting_.empty()) {
    Sequence* head = waiting_.front();
    if (head->arrival_step > now_step) break;
    if (cfg_.pool != nullptr) {
      // A demand above a whole (bounded) shard can never be satisfied —
      // the cap is physical, there is no run-solo override. Reject the
      // request instead of deadlocking the FIFO; admission moves on to
      // the next waiting sequence. The check uses the smallest
      // conceivable charge: a pinned prefix match shrinks demand on its
      // resident shards.
      const std::size_t per_shard = cfg_.pool->config().blocks_per_shard;
      const std::size_t bt = cfg_.pool->block_tokens();
      const std::size_t min_demand =
          head->prefix_entry != nullptr
              ? head->unshared_admission_blocks(bt)
              : head->admission_cost_blocks(bt);
      if (per_shard > 0 && min_demand > per_shard) {
        waiting_.pop_front();
        head->status = SequenceStatus::kFinished;
        head->finish = FinishReason::kRejected;
        head->error =
            "sequence KV demand exceeds a whole pool shard; grow "
            "blocks_per_shard or reduce the request";
        rejected_.push_back(head);
        if (ctr_rejected_ != nullptr) ctr_rejected_->add();
        continue;
      }
    }
    if (!fits(*head)) break;
    waiting_.pop_front();
    head->status = SequenceStatus::kActive;
    head->charged_tokens = head->admission_cost_tokens();
    tokens_in_use_ += head->charged_tokens;
    if (cfg_.pool != nullptr) {
      const auto placement = choose_shard(*head);
      // fits() said yes a moment ago, but the reservation can still be
      // refused: a prefix-index insert/replication on another code path
      // claimed the capacity in between (TOCTOU), or a fault injector
      // vetoed it. Roll the admission back and retry next round — or
      // reject once the same sequence has lost too many rounds in a row
      // for a race to be the explanation.
      if (!placement.has_value() ||
          !cfg_.pool->try_reserve(placement->shard, placement->demand)) {
        tokens_in_use_ -= head->charged_tokens;
        if (ctr_retries_ != nullptr) ctr_retries_->add();
        head->charged_tokens = 0;
        ++head->reserve_failures;
        if (cfg_.max_reserve_retries > 0 &&
            head->reserve_failures > cfg_.max_reserve_retries) {
          head->status = SequenceStatus::kFinished;
          head->finish = FinishReason::kRejected;
          head->error = "block reservation denied " +
                        std::to_string(head->reserve_failures) +
                        " consecutive admission rounds";
          rejected_.push_back(head);
          if (ctr_rejected_ != nullptr) ctr_rejected_->add();
          continue;
        }
        head->status = SequenceStatus::kWaiting;
        waiting_.push_front(head);
        break;
      }
      head->reserve_failures = 0;
      head->shard = placement->shard;
      head->reserved_blocks = placement->demand;
      blocks_in_use_ += placement->demand;
    }
    head->admitted_step = now_step;
    active_.push_back(head);
    admitted.push_back(head);
    if (ctr_admitted_ != nullptr) ctr_admitted_->add();
  }
  return admitted;
}

std::vector<Sequence*> BatchScheduler::take_rejected() {
  std::vector<Sequence*> out;
  out.swap(rejected_);
  return out;
}

void BatchScheduler::preempt(Sequence* seq, std::size_t now_step) {
  const auto it = std::find(active_.begin(), active_.end(), seq);
  if (it == active_.end()) {
    throw std::invalid_argument("preempt of a sequence that is not active");
  }
  active_.erase(it);
  tokens_in_use_ -= seq->charged_tokens;
  seq->charged_tokens = 0;
  if (cfg_.pool != nullptr && seq->shard != Sequence::kNoShard) {
    cfg_.pool->unreserve(seq->shard, seq->reserved_blocks);
    blocks_in_use_ -= seq->reserved_blocks;
    seq->reserved_blocks = 0;
    seq->shard = Sequence::kNoShard;
  }
  ++seq->preemptions;
  if (ctr_preempted_ != nullptr) ctr_preempted_->add();
  seq->status = SequenceStatus::kWaiting;
  seq->queue_enter_step = now_step;
  // Re-queue behind every already-arrived waiter — the starved head that
  // triggered the preemption must get the freed budget, not the victim
  // right back — but ahead of arrivals still in the future, preserving
  // the queue's arrival ordering for next_arrival() clock jumps.
  const auto pos =
      std::find_if(waiting_.begin(), waiting_.end(), [&](const Sequence* w) {
        return w->arrival_step > now_step;
      });
  waiting_.insert(pos, seq);
}

Sequence* BatchScheduler::pick_victim(std::size_t now_step,
                                      std::size_t min_age_steps,
                                      std::size_t max_preemptions) const {
  Sequence* best = nullptr;
  for (Sequence* s : active_) {
    if (max_preemptions > 0 && s->preemptions >= max_preemptions) continue;
    if (now_step - s->admitted_step < min_age_steps) continue;
    // Youngest arrival pays; >= breaks ties toward the latest admission
    // (active_ is admission-ordered), i.e. the least sunk work.
    if (best == nullptr || s->arrival_step >= best->arrival_step) best = s;
  }
  return best;
}

bool BatchScheduler::remove_waiting(Sequence* seq) {
  const auto it = std::find(waiting_.begin(), waiting_.end(), seq);
  if (it == waiting_.end()) return false;
  waiting_.erase(it);
  return true;
}

void BatchScheduler::settle(Sequence* seq) {
  const auto it = std::find(active_.begin(), active_.end(), seq);
  if (it == active_.end()) {
    throw std::invalid_argument("settle of a sequence that is not active");
  }
  const std::size_t steady = seq->cost_tokens();
  tokens_in_use_ -= seq->charged_tokens - std::min(seq->charged_tokens, steady);
  seq->charged_tokens = std::min(seq->charged_tokens, steady);
  if (cfg_.pool != nullptr && seq->shard != Sequence::kNoShard) {
    const std::size_t steady_blocks =
        std::min(seq->reserved_blocks,
                 seq->cost_blocks(cfg_.pool->block_tokens()));
    const std::size_t excess = seq->reserved_blocks - steady_blocks;
    if (excess > 0) {
      cfg_.pool->unreserve(seq->shard, excess);
      seq->reserved_blocks = steady_blocks;
      blocks_in_use_ -= excess;
    }
  }
}

void BatchScheduler::release(Sequence* seq) {
  const auto it = std::find(active_.begin(), active_.end(), seq);
  if (it == active_.end()) {
    throw std::invalid_argument("release of a sequence that is not active");
  }
  active_.erase(it);
  tokens_in_use_ -= seq->charged_tokens;
  seq->charged_tokens = 0;
  if (cfg_.pool != nullptr && seq->shard != Sequence::kNoShard) {
    cfg_.pool->unreserve(seq->shard, seq->reserved_blocks);
    blocks_in_use_ -= seq->reserved_blocks;
    seq->reserved_blocks = 0;
    seq->shard = Sequence::kNoShard;
  }
}

std::optional<std::size_t> BatchScheduler::next_arrival() const {
  if (waiting_.empty()) return std::nullopt;
  return waiting_.front()->arrival_step;
}

}  // namespace kf::serve
