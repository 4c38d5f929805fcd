// Random eviction baseline (not in the paper's figures, but a useful lower
// bound for ablations): keep the recent window plus a uniformly random
// subset of the older tokens. Deterministic given the seed.
#pragma once

#include "core/rng.h"
#include "kvcache/policy.h"

namespace kf::kv {

class RandomEvictPolicy final : public EvictionPolicy {
 public:
  explicit RandomEvictPolicy(std::uint64_t seed = 42) : seed_(seed) {}

  std::string name() const override { return "random"; }
  /// One RNG stream serves every layer, drawn in (token, layer) order.
  bool layers_independent() const override { return false; }

  void begin_sequence(const SequenceInfo& info) override;
  void observe(const PolicyContext& ctx) override;

 private:
  std::uint64_t seed_;
  Rng rng_{42};
};

}  // namespace kf::kv
