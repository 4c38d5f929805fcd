// Seeded fault injection for chaos-testing the serving stack.
//
// SeededFaultInjector implements the mem::FaultInjector hook with
// independent Bernoulli failure rates for block reservations (admission
// claims losing their race) and block allocations (mid-decode exhaustion).
// The decision stream is a deterministic function of the seed, so a chaos
// run's failure pattern replays bit-for-bit given the same seed and the
// same sequence of pool calls; under the multi-threaded decode step the
// *assignment* of draws to call sites follows the thread interleaving,
// which is exactly the nondeterminism a chaos suite wants to explore while
// the engine's invariants (definite finish reasons, zero leaked blocks,
// no escaping exceptions) must hold regardless.
//
// Install on an engine with Engine::set_fault_injector(&injector); the
// injector must outlive the runs it is installed for.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/annotations.h"
#include "core/mutex.h"
#include "core/rng.h"
#include "mem/block_pool.h"

namespace kf::serve {

struct FaultInjectorConfig {
  /// P(try_reserve fails) on an otherwise-successful reservation.
  double reserve_failure_rate = 0.0;
  /// P(try_allocate fails) on an otherwise-successful allocation.
  double allocate_failure_rate = 0.0;
  std::uint64_t seed = 1;
};

/// Deterministic probabilistic failures for BlockPool reserve/allocate.
/// Thread-safe: the pool consults it under the pool mutex from concurrent
/// decode workers, so the draw stream sits behind its own mutex (acquired
/// after the pool mutex; the injector takes no other locks, so the order
/// is acyclic).
class SeededFaultInjector final : public mem::FaultInjector {
 public:
  explicit SeededFaultInjector(FaultInjectorConfig cfg)
      : cfg_(cfg), rng_(cfg.seed) {}

  bool should_fail(mem::FaultOp op) override KF_EXCLUDES(mu_) {
    const double rate = op == mem::FaultOp::kReserve
                            ? cfg_.reserve_failure_rate
                            : cfg_.allocate_failure_rate;
    if (rate <= 0.0) return false;
    const LockGuard lock(mu_);
    const bool fail = rng_.uniform() < rate;
    if (fail) {
      if (op == mem::FaultOp::kReserve) {
        ++reserve_failures_;
      } else {
        ++allocate_failures_;
      }
    }
    return fail;
  }

  /// Reservations vetoed so far.
  std::size_t reserve_failures() const KF_EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    return reserve_failures_;
  }
  /// Allocations vetoed so far.
  std::size_t allocate_failures() const KF_EXCLUDES(mu_) {
    const LockGuard lock(mu_);
    return allocate_failures_;
  }

 private:
  const FaultInjectorConfig cfg_;
  mutable Mutex mu_;
  Rng rng_ KF_GUARDED_BY(mu_);
  std::size_t reserve_failures_ KF_GUARDED_BY(mu_) = 0;
  std::size_t allocate_failures_ KF_GUARDED_BY(mu_) = 0;
};

}  // namespace kf::serve
