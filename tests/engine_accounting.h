// Shared check for the engine suites: the engine's own accounting agrees
// with the Responses it returned, whatever path each sequence took out.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "serve/engine.h"

namespace kf::serve {

/// EngineStats' eviction counters, eviction_report() and the
/// evict.keyformer.* registry counters equal the sums of Response::eviction,
/// and timeouts/rejections equal the kTimeout/kRejected counts. Expects a
/// fresh engine (its lifetime aggregates then cover exactly this run) with
/// the Keyformer policy.
inline void expect_accounting_matches_responses(
    Engine& engine, const std::vector<Response>& responses) {
  std::size_t decisions = 0;
  std::size_t evicted = 0;
  std::size_t kept = 0;
  std::size_t timeouts = 0;
  std::size_t rejections = 0;
  for (const Response& r : responses) {
    decisions += r.eviction.decisions;
    evicted += r.eviction.tokens_evicted;
    kept += r.eviction.tokens_kept;
    timeouts += r.finish == FinishReason::kTimeout ? 1 : 0;
    rejections += r.finish == FinishReason::kRejected ? 1 : 0;
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.eviction_decisions, decisions);
  EXPECT_EQ(st.evicted_tokens, evicted);
  EXPECT_EQ(st.kept_tokens, kept);
  EXPECT_EQ(st.timeouts, timeouts);
  EXPECT_EQ(st.rejections, rejections);
  EXPECT_EQ(engine.eviction_report().decisions(), decisions);
  EXPECT_EQ(engine.metrics().counter("evict.keyformer.decisions").value(),
            decisions);
}

}  // namespace kf::serve
