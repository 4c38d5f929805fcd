#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "kvcache/policy_factory.h"
#include "mem/block_pool.h"
#include "mem/prefix_index.h"
#include "obs/metrics.h"

namespace kf::serve {
namespace {

Sequence make_seq(std::size_t prompt_len, double cache_ratio,
                  std::size_t max_new = 8) {
  Sequence s;
  s.prompt.assign(prompt_len, 1);
  s.gen.max_new_tokens = max_new;
  s.gen.cache_ratio = cache_ratio;
  s.budget = kv::make_budget(prompt_len, cache_ratio);
  return s;
}

mem::BlockPoolConfig block_pool_config(std::size_t capacity_blocks,
                                       std::size_t block_tokens = 8) {
  mem::BlockPoolConfig cfg;
  cfg.capacity_blocks = capacity_blocks;
  cfg.block_tokens = block_tokens;
  cfg.n_heads = 2;
  cfg.d_head = 4;
  return cfg;
}

Sequence make_block_seq(std::size_t prompt_len, double cache_ratio,
                        std::size_t n_layers = 2, std::size_t max_new = 8) {
  Sequence s = make_seq(prompt_len, cache_ratio, max_new);
  s.n_layers = n_layers;
  return s;
}

TEST(SequenceCost, BudgetedSequenceCostsSteadyStateFootprint) {
  const Sequence s = make_seq(40, 0.5);
  // k = 20 plus the transient append slot.
  EXPECT_EQ(s.cost_tokens(), 21u);
}

TEST(SequenceCost, FullAttentionCostsFinalLength) {
  const Sequence s = make_seq(40, 1.0, 8);
  EXPECT_EQ(s.cost_tokens(), 48u);
}

TEST(SequenceCost, LowerCacheRatioCostsLess) {
  EXPECT_LT(make_seq(100, 0.25).cost_tokens(),
            make_seq(100, 0.5).cost_tokens());
  EXPECT_LT(make_seq(100, 0.5).cost_tokens(),
            make_seq(100, 1.0).cost_tokens());
}

TEST(SequenceCost, NonEvictingPolicyChargesFullGrowth) {
  // A cache_ratio budget only caps memory when the policy evicts; kFull
  // ignores it and grows to prompt+gen, so it must be charged that.
  Sequence s = make_seq(40, 0.5, 8);
  s.policy = kv::make_policy(kv::PolicyKind::kFull);
  EXPECT_EQ(s.cost_tokens(), 48u);
  EXPECT_EQ(s.admission_cost_tokens(), 48u);
}

TEST(SequenceCost, AdmissionChargesPrefillPeak) {
  // Prefill materializes the full prompt per layer before the policy
  // trims, so admission charges max(prompt_len, steady-state).
  EXPECT_EQ(make_seq(40, 0.5).admission_cost_tokens(), 40u);
  // Full attention's steady cost (prompt + gen) already exceeds it.
  EXPECT_EQ(make_seq(40, 1.0, 8).admission_cost_tokens(), 48u);
}

TEST(BatchScheduler, AdmitsUpToBatchSize) {
  mem::BlockPool pool(block_pool_config(0));  // unbounded
  BatchScheduler sched(pool, {.max_batch_size = 2});
  std::vector<Sequence> seqs;
  for (int i = 0; i < 3; ++i) seqs.push_back(make_block_seq(16, 0.5));
  for (auto& s : seqs) sched.submit(&s);
  const auto admitted = sched.admit(0);
  EXPECT_EQ(admitted.size(), 2u);
  EXPECT_EQ(sched.active_count(), 2u);
  EXPECT_EQ(sched.waiting_count(), 1u);
  // Releasing one frees a slot for the third.
  sched.release(admitted[0]);
  EXPECT_EQ(sched.admit(0).size(), 1u);
}

TEST(BatchScheduler, BlockBudgetChargesPrefillPeakThenSettles) {
  // One layer of 4-token blocks. Each sequence settles to k+1 = 9 tokens
  // (3 blocks) but transiently needs its full 16-token prompt (4 blocks)
  // resident during prefill; the pool must cover the reserved (not just
  // steady-state) total at every admission.
  mem::BlockPool pool(block_pool_config(7, /*block_tokens=*/4));
  BatchScheduler sched(pool, {.max_batch_size = 0});
  std::vector<Sequence> seqs;
  for (int i = 0; i < 3; ++i) {
    seqs.push_back(make_block_seq(16, 0.5, /*n_layers=*/1));
  }
  for (auto& s : seqs) sched.submit(&s);

  // Two un-settled prefill peaks (4 + 4) exceed 7: one at a time.
  auto admitted = sched.admit(0);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(sched.blocks_in_use(), 4u);
  sched.settle(admitted[0]);
  EXPECT_EQ(sched.blocks_in_use(), 3u);

  // 3 settled + 4 prefilling = 7 fits exactly.
  admitted = sched.admit(0);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(sched.blocks_in_use(), 7u);
  sched.settle(admitted[0]);
  EXPECT_EQ(sched.blocks_in_use(), 6u);

  // 6 settled + 4 > 7: the third waits for a release.
  EXPECT_TRUE(sched.admit(0).empty());
  sched.release(sched.active()[0]);
  EXPECT_EQ(sched.blocks_in_use(), 3u);
  EXPECT_EQ(sched.admit(0).size(), 1u);
  EXPECT_EQ(pool.stats().reserved_blocks, 7u);
}

TEST(BatchScheduler, ReducedCacheRatioAdmitsMoreSequences) {
  // The Table 1 mechanism: at half the cache ratio, roughly twice the
  // sequences fit the same pool. Two layers of 8-token blocks, 64-token
  // prompts: full attention holds 18 blocks; ratio 0.5 settles to 10
  // and ratio 0.25 to 6, each after a 16-block prefill peak.
  const auto admitted_at = [&](double ratio) {
    mem::BlockPool pool(block_pool_config(50));
    BatchScheduler sched(pool, {.max_batch_size = 0});
    std::vector<Sequence> seqs;
    seqs.reserve(16);
    for (int i = 0; i < 16; ++i) seqs.push_back(make_block_seq(64, ratio));
    for (auto& s : seqs) sched.submit(&s);
    // Drive to steady state: admit, settle (prefill completes), repeat
    // until the budget blocks further admission.
    while (true) {
      const auto admitted = sched.admit(0);
      if (admitted.empty()) break;
      for (Sequence* s : admitted) sched.settle(s);
    }
    return sched.active_count();
  };
  EXPECT_EQ(admitted_at(1.0), 2u);
  EXPECT_EQ(admitted_at(0.5), 4u);
  EXPECT_EQ(admitted_at(0.25), 6u);
}

TEST(BatchScheduler, ArrivalStepGatesAdmission) {
  mem::BlockPool pool(block_pool_config(0));  // unbounded
  BatchScheduler sched(pool, {.max_batch_size = 0});
  Sequence early = make_block_seq(8, 1.0, 2, 4);
  Sequence late = make_block_seq(8, 1.0, 2, 4);
  late.arrival_step = 5;
  sched.submit(&early);
  sched.submit(&late);
  EXPECT_EQ(sched.admit(0).size(), 1u);
  EXPECT_EQ(sched.admit(4).size(), 0u);
  ASSERT_TRUE(sched.next_arrival().has_value());
  EXPECT_EQ(*sched.next_arrival(), 5u);
  EXPECT_EQ(sched.admit(5).size(), 1u);
  EXPECT_FALSE(sched.next_arrival().has_value());
}

TEST(BatchScheduler, StrictFifoHeadOfLineBlocks) {
  // A big head-of-queue request blocks later small ones (no starvation of
  // large requests), even though the small one would fit.
  mem::BlockPool pool(block_pool_config(16));
  BatchScheduler sched(pool, {.max_batch_size = 0});
  Sequence resident = make_block_seq(40, 0.5);  // admission charge 10
  Sequence big = make_block_seq(60, 0.5);       // charge 16 > remaining 6
  Sequence small = make_block_seq(8, 0.5);      // charge 2, would fit
  sched.submit(&resident);
  ASSERT_EQ(sched.admit(0).size(), 1u);
  sched.submit(&big);
  sched.submit(&small);
  EXPECT_TRUE(sched.admit(0).empty());
  // Once the resident leaves, the big head fits the freed budget, and only
  // then the small one.
  sched.release(&resident);
  auto admitted = sched.admit(0);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], &big);
}

TEST(BatchScheduler, ReleaseOrSettleOfInactiveThrows) {
  mem::BlockPool pool(block_pool_config(0));
  BatchScheduler sched(pool);
  Sequence s = make_seq(8, 0.5);
  EXPECT_THROW(sched.release(&s), std::invalid_argument);
  EXPECT_THROW(sched.settle(&s), std::invalid_argument);
  EXPECT_THROW(sched.submit(nullptr), std::invalid_argument);
}

TEST(SequenceCost, BlockDemandRoundsPerLayer) {
  // k = 20 -> steady 21 tokens; block_tokens 8 -> 3 blocks per layer.
  const Sequence s = make_block_seq(40, 0.5, /*n_layers=*/2);
  EXPECT_EQ(s.cost_blocks(8), 6u);
  // Admission peak is the 40-token prompt: 5 blocks per layer.
  EXPECT_EQ(s.admission_cost_blocks(8), 10u);
}

TEST(BatchScheduler, BlockModeReservesAndSettlesRealBlocks) {
  mem::BlockPool pool(block_pool_config(12));
  BatchScheduler sched(pool, {.max_batch_size = 0});

  Sequence s = make_block_seq(40, 0.5);  // admit 10 blocks, steady 6
  sched.submit(&s);
  ASSERT_EQ(sched.admit(0).size(), 1u);
  EXPECT_EQ(s.reserved_blocks, 10u);
  EXPECT_EQ(sched.blocks_in_use(), 10u);
  EXPECT_EQ(pool.stats().reserved_blocks, 10u);

  sched.settle(&s);
  EXPECT_EQ(s.reserved_blocks, 6u);
  EXPECT_EQ(pool.stats().reserved_blocks, 6u);

  sched.release(&s);
  EXPECT_EQ(sched.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().reserved_blocks, 0u);
  EXPECT_EQ(s.reserved_blocks, 0u);
}

TEST(BatchScheduler, BlockModeChargesFragmentationTokenModeHides) {
  // Two sequences of steady cost 21 tokens = 3 blocks of 8 per layer x 2
  // layers = 6 blocks each after settle, but 10 at admission. A pool of
  // 12 blocks fits them only sequentially: the second must wait for the
  // first's settle, and a third can never join while both are resident —
  // even though a 48-token *token* budget would have admitted 2 at once.
  mem::BlockPool pool(block_pool_config(12));
  BatchScheduler sched(pool, {.max_batch_size = 0});

  Sequence a = make_block_seq(40, 0.5);
  Sequence b = make_block_seq(40, 0.5);
  sched.submit(&a);
  sched.submit(&b);
  ASSERT_EQ(sched.admit(0).size(), 1u);  // only a fits its prefill peak
  sched.settle(&a);                      // 6 reserved; 6 free
  ASSERT_EQ(sched.admit(0).size(), 0u);  // b's peak (10) still too big
  sched.release(&a);
  ASSERT_EQ(sched.admit(0).size(), 1u);
}

TEST(BatchScheduler, BlockModeOversizedDemandIsRejectedNotDeadlocked) {
  // A demand above the whole pool can never be satisfied; the scheduler
  // marks it kRejected and moves on so the FIFO head cannot deadlock the
  // queue — and the sequence behind it is admitted in the same round.
  mem::BlockPool pool(block_pool_config(4));
  BatchScheduler sched(pool);
  Sequence huge = make_block_seq(100, 1.0);  // far beyond 4 blocks
  Sequence ok = make_block_seq(8, 1.0);
  sched.submit(&huge);
  sched.submit(&ok);
  const auto admitted = sched.admit(0);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], &ok);
  const auto rejected = sched.take_rejected();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], &huge);
  EXPECT_EQ(huge.status, SequenceStatus::kFinished);
  EXPECT_EQ(huge.finish, FinishReason::kRejected);
  EXPECT_FALSE(huge.error.empty());
  // Drained: a second take returns nothing.
  EXPECT_TRUE(sched.take_rejected().empty());
}

// ---------------------------------------------------------------------------
// Prefix-cache-aware admission: shared chains reduce the charged demand.

/// Indexes a `tokens`-long run (must be whole blocks), returning the
/// entry (the builder state is torn down; the index keeps the chain
/// alive).
const mem::PrefixEntry* index_prefix(mem::BlockPool& pool,
                                     mem::PrefixIndex& index,
                                     std::size_t tokens) {
  kv::SequenceKvState state(pool, 2);
  std::vector<mem::PrefixToken> run(tokens);
  for (std::size_t i = 0; i < tokens; ++i) {
    run[i] = static_cast<mem::PrefixToken>(i);
  }
  for (std::size_t l = 0; l < 2; ++l) {
    auto& cache = state.layer(l);
    const std::vector<float> row(cache.row_width(), 1.0F);
    for (std::size_t t = 0; t < tokens; ++t) cache.append(row, row, t);
  }
  return index.insert(run, state);
}

TEST(SequenceCost, UnsharedAdmissionBlocksSubtractResidentPrefix) {
  // 40-token prompt at ratio 0.5, block_tokens 8: full admission is 5
  // blocks/layer. A 24-token (3-block) shared prefix leaves a 16-token
  // suffix (2 blocks) plus the allowance for shared blocks, bounded by
  // the steady footprint (3 blocks): 2 + 3 = 5... capped by full (5).
  Sequence s = make_block_seq(40, 0.5);
  EXPECT_EQ(s.admission_cost_blocks(8), 10u);
  s.prefix_blocks_per_layer = 3;
  // Without an entry the reduced form still computes (the scheduler only
  // consults it when an entry is pinned).
  EXPECT_EQ(s.unshared_admission_blocks(8), 10u);

  // A longer prefix (32 tokens = 4 blocks): suffix 1 block + min(4,
  // steady 3) = 4 blocks/layer -> 8 total, below the full 10.
  s.prefix_blocks_per_layer = 4;
  EXPECT_EQ(s.unshared_admission_blocks(8), 8u);

  // Non-evicting full attention never copies: charge full minus prefix.
  Sequence full_s = make_block_seq(40, 1.0, /*n_layers=*/2, /*max_new=*/8);
  full_s.policy = kv::make_policy(kv::PolicyKind::kFull);
  EXPECT_EQ(full_s.admission_cost_blocks(8), 12u);  // 48 tokens -> 6/layer
  full_s.prefix_blocks_per_layer = 4;
  EXPECT_EQ(full_s.unshared_admission_blocks(8), 4u);  // (6 - 4) * 2
}

TEST(BatchScheduler, PinnedPrefixIsChargedOnlyItsUnsharedDemand) {
  mem::BlockPool pool(block_pool_config(32));
  mem::PrefixIndexConfig ic;
  ic.n_layers = 2;
  mem::PrefixIndex index(pool, ic);
  const mem::PrefixEntry* entry = index_prefix(pool, index, 32);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(pool.stats().reserved_blocks, 8u);  // the index's chain

  BatchScheduler sched(pool, {.max_batch_size = 0});

  Sequence s = make_block_seq(40, 0.5);
  s.prefix_entry = entry;
  s.prefix_blocks_per_layer = 4;
  sched.submit(&s);
  ASSERT_EQ(sched.admit(0).size(), 1u);
  EXPECT_EQ(s.reserved_blocks, s.unshared_admission_blocks(8));
  EXPECT_LT(s.reserved_blocks, s.admission_cost_blocks(8));
  EXPECT_EQ(pool.stats().reserved_blocks, 8u + s.reserved_blocks);
}

TEST(BatchScheduler, PinnedPrefixWaitsUntilItsUnsharedDemandFits) {
  // Capacity 17 with the index holding 8 blocks leaves 9: room for the
  // prefix sequence's 8-block unshared demand, not its 10-block full one.
  mem::BlockPool pool(block_pool_config(17));
  mem::PrefixIndexConfig ic;
  ic.n_layers = 2;
  mem::PrefixIndex index(pool, ic);
  const mem::PrefixEntry* entry = index_prefix(pool, index, 32);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(pool.stats().reserved_blocks, 8u);

  BatchScheduler sched(pool, {.max_batch_size = 0});
  Sequence blocker = make_block_seq(16, 0.5);
  Sequence s = make_block_seq(40, 0.5);
  s.prefix_entry = entry;
  s.prefix_blocks_per_layer = 4;
  ASSERT_EQ(blocker.admission_cost_blocks(8), 4u);
  ASSERT_EQ(s.unshared_admission_blocks(8), 8u);
  ASSERT_EQ(s.admission_cost_blocks(8), 10u);
  sched.submit(&blocker);
  sched.submit(&s);

  // The blocker leaves 5 blocks free: the prefix sequence waits at the
  // queue head — neither admitted nor rejected.
  ASSERT_EQ(sched.admit(0).size(), 1u);
  EXPECT_EQ(sched.admit(1).size(), 0u);
  EXPECT_EQ(s.status, SequenceStatus::kWaiting);
  EXPECT_TRUE(sched.take_rejected().empty());

  sched.release(&blocker);
  const auto admitted = sched.admit(2);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], &s);
  EXPECT_EQ(s.reserved_blocks, 8u);
  EXPECT_EQ(pool.stats().reserved_blocks, 16u);
  sched.release(&s);
}

TEST(BatchScheduler, BlockModeRequiresLayerCount) {
  mem::BlockPool pool(block_pool_config(8));
  BatchScheduler sched(pool);
  Sequence s = make_seq(8, 0.5);  // n_layers left 0
  EXPECT_THROW(sched.submit(&s), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Robustness: preemption bookkeeping, victim selection, reservation retry.

TEST(BatchScheduler, PreemptFreesChargesAndRequeuesBehindArrivedWaiters) {
  mem::BlockPool pool(block_pool_config(12));
  BatchScheduler sched(pool);
  Sequence a = make_block_seq(40, 0.5);  // 10 admission blocks: fills pool
  Sequence b = make_block_seq(40, 0.5, 2, 8);
  b.arrival_step = 1;
  Sequence late = make_block_seq(8, 0.5, 2, 8);
  late.arrival_step = 100;  // still in the future at preemption time
  sched.submit(&a);
  sched.submit(&b);
  sched.submit(&late);
  ASSERT_EQ(sched.admit(0).size(), 1u);
  EXPECT_EQ(sched.blocks_in_use(), 10u);
  ASSERT_EQ(sched.admit(5).size(), 0u);  // b starved behind a

  sched.preempt(&a, 5);
  EXPECT_EQ(a.status, SequenceStatus::kWaiting);
  EXPECT_EQ(a.preemptions, 1u);
  EXPECT_EQ(a.queue_enter_step, 5u);
  EXPECT_EQ(a.reserved_blocks, 0u);
  EXPECT_EQ(sched.blocks_in_use(), 0u);
  EXPECT_EQ(pool.stats().reserved_blocks, 0u);
  // Victim re-queues behind the arrived waiter b but ahead of the future
  // arrival `late`: the starved head gets the freed budget first.
  ASSERT_EQ(sched.waiting_count(), 3u);
  EXPECT_EQ(sched.waiting()[0], &b);
  EXPECT_EQ(sched.waiting()[1], &a);
  EXPECT_EQ(sched.waiting()[2], &late);
  const auto admitted = sched.admit(5);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], &b);
}

TEST(BatchScheduler, PickVictimHonorsAgeFloorAndPreemptionCap) {
  mem::BlockPool pool(block_pool_config(32));
  BatchScheduler sched(pool);
  Sequence a = make_block_seq(16, 0.5);  // arrival 0
  Sequence b = make_block_seq(16, 0.5, 2, 8);
  b.arrival_step = 2;
  sched.submit(&a);
  sched.submit(&b);
  ASSERT_EQ(sched.admit(0).size(), 1u);
  ASSERT_EQ(sched.admit(2).size(), 1u);

  // Youngest arrival (b) pays, but only once old enough.
  EXPECT_EQ(sched.pick_victim(3, /*min_age=*/4, /*max_preempt=*/8), nullptr);
  EXPECT_EQ(sched.pick_victim(6, 4, 8), &b);
  // At its preemption cap, b is shielded and the pick falls back to a.
  b.preemptions = 8;
  EXPECT_EQ(sched.pick_victim(6, 4, 8), &a);
  // Cap 0 = uncapped: b is the victim again.
  EXPECT_EQ(sched.pick_victim(6, 4, 0), &b);
  // Nobody qualifies when everyone is capped.
  a.preemptions = 8;
  EXPECT_EQ(sched.pick_victim(6, 4, 8), nullptr);
}

/// Injector that vetoes every reservation, forever.
class AlwaysFailReserve final : public mem::FaultInjector {
 public:
  bool should_fail(mem::FaultOp op) override {
    return op == mem::FaultOp::kReserve;
  }
};

TEST(BatchScheduler, ReservationDeniedRetriesThenRejectsAtCap) {
  mem::BlockPool pool(block_pool_config(12));
  AlwaysFailReserve inject;
  pool.set_fault_injector(&inject);
  obs::MetricsRegistry reg;
  SchedulerConfig cfg;
  cfg.max_reserve_retries = 3;
  cfg.metrics = &reg;
  BatchScheduler sched(pool, cfg);
  Sequence s = make_block_seq(16, 0.5);
  sched.submit(&s);
  // Rounds 1..3: fits() says yes, try_reserve loses; the admission rolls
  // back cleanly each time and the sequence stays at the queue head.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(sched.admit(0).empty());
    EXPECT_EQ(s.status, SequenceStatus::kWaiting);
    EXPECT_EQ(sched.waiting_count(), 1u);
  }
  EXPECT_EQ(reg.counter("sched.reservation_retries").value(), 3u);
  // Round 4 crosses max_reserve_retries: rejected, queue drained.
  EXPECT_TRUE(sched.admit(0).empty());
  EXPECT_EQ(s.finish, FinishReason::kRejected);
  EXPECT_FALSE(s.error.empty());
  EXPECT_EQ(sched.waiting_count(), 0u);
  ASSERT_EQ(sched.take_rejected().size(), 1u);
  // The moment the faults stop, a fresh sequence admits normally.
  pool.set_fault_injector(nullptr);
  Sequence ok = make_block_seq(16, 0.5);
  sched.submit(&ok);
  EXPECT_EQ(sched.admit(0).size(), 1u);
  sched.release(&ok);
}

}  // namespace
}  // namespace kf::serve
