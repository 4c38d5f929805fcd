#include "serve/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mem/block_pool.h"
#include "obs/metrics.h"

namespace kf::serve {

BatchScheduler::BatchScheduler(mem::BlockPool& pool, SchedulerConfig cfg)
    : pool_(pool), cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    ctr_admitted_ = &cfg_.metrics->counter("sched.admitted");
    ctr_rejected_ = &cfg_.metrics->counter("sched.rejected");
    ctr_preempted_ = &cfg_.metrics->counter("sched.preempted");
    ctr_retries_ = &cfg_.metrics->counter("sched.reservation_retries");
  }
}

void BatchScheduler::submit(Sequence* seq) {
  if (seq == nullptr) throw std::invalid_argument("submit(nullptr)");
  if (seq->n_layers == 0) {
    throw std::invalid_argument("scheduling requires seq->n_layers > 0");
  }
  seq->status = SequenceStatus::kWaiting;
  seq->queue_enter_step = seq->arrival_step;
  waiting_.push_back(seq);
}

std::size_t BatchScheduler::demand_blocks(const Sequence& seq) const {
  const std::size_t bt = pool_.block_tokens();
  return seq.prefix_entry != nullptr ? seq.unshared_admission_blocks(bt)
                                     : seq.admission_cost_blocks(bt);
}

bool BatchScheduler::fits(const Sequence& seq) const {
  if (cfg_.max_batch_size > 0 && active_.size() >= cfg_.max_batch_size) {
    return false;
  }
  return demand_blocks(seq) <= pool_.unreserved_blocks();
}

std::vector<Sequence*> BatchScheduler::admit(std::size_t now_step) {
  std::vector<Sequence*> admitted;
  while (!waiting_.empty()) {
    Sequence* head = waiting_.front();
    if (head->arrival_step > now_step) break;
    // A demand above the whole (bounded) pool can never be satisfied: the
    // cap is physical. Reject the request instead of deadlocking the FIFO;
    // admission moves on to the next waiting sequence.
    const std::size_t capacity = pool_.config().capacity_blocks;
    if (capacity > 0 && demand_blocks(*head) > capacity) {
      waiting_.pop_front();
      head->status = SequenceStatus::kFinished;
      head->finish = FinishReason::kRejected;
      head->error =
          "sequence KV demand exceeds the whole block pool; grow "
          "capacity_blocks or reduce the request";
      rejected_.push_back(head);
      if (ctr_rejected_ != nullptr) ctr_rejected_->add();
      continue;
    }
    if (!fits(*head)) break;
    waiting_.pop_front();
    const std::size_t demand = demand_blocks(*head);
    // fits() said yes a moment ago, but the reservation can still be
    // refused: a prefix-index insert on another code path claimed the
    // capacity in between (TOCTOU), or a fault injector vetoed it. Roll
    // the admission back and retry next round — or reject once the same
    // sequence has lost too many rounds in a row for a race to be the
    // explanation.
    if (!pool_.try_reserve(demand)) {
      if (ctr_retries_ != nullptr) ctr_retries_->add();
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
      waiting_.push_front(head);
      break;
    }
    head->status = SequenceStatus::kActive;
    head->reserve_failures = 0;
    head->reserved_blocks = demand;
    blocks_in_use_ += demand;
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
  release_charges(*seq);
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
  const std::size_t steady_blocks = std::min(
      seq->reserved_blocks, seq->cost_blocks(pool_.block_tokens()));
  const std::size_t excess = seq->reserved_blocks - steady_blocks;
  if (excess > 0) {
    pool_.unreserve(excess);
    seq->reserved_blocks = steady_blocks;
    blocks_in_use_ -= excess;
  }
}

void BatchScheduler::release(Sequence* seq) {
  const auto it = std::find(active_.begin(), active_.end(), seq);
  if (it == active_.end()) {
    throw std::invalid_argument("release of a sequence that is not active");
  }
  active_.erase(it);
  release_charges(*seq);
}

void BatchScheduler::release_charges(Sequence& seq) {
  pool_.unreserve(seq.reserved_blocks);
  blocks_in_use_ -= seq.reserved_blocks;
  seq.reserved_blocks = 0;
}

std::optional<std::size_t> BatchScheduler::next_arrival() const {
  if (waiting_.empty()) return std::nullopt;
  return waiting_.front()->arrival_step;
}

}  // namespace kf::serve
