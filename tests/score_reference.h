// Test-only oracles for Keyformer's score path, kept as the plain loops
// the library ran before the dispatched score kernel and the O(n)
// keep-set selection: the score-increment softmax over a whole row
// (masked entries included) and the partial_sort selection. Parity tests
// compare the library against these bit for bit under
// KF_CPU_ISA=scalar.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace kf::kv::reference {

/// out = softmax((logits + noise) / tau) in double; an empty `noise`
/// adds a zero adjustment.
inline void score_increments(std::span<const float> logits,
                             std::span<const double> noise, double tau,
                             std::span<double> out) {
  double max_y = -1e300;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double z = noise.empty() ? 0.0 : noise[i];
    const double y = static_cast<double>(logits[i]) + z;
    out[i] = y;
    max_y = y > max_y ? y : max_y;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::exp((out[i] - max_y) / tau);
    sum += out[i];
  }
  if (sum == 0.0) {
    for (double& v : out) v = 0.0;
    return;
  }
  const double inv = 1.0 / sum;
  for (double& v : out) v *= inv;
}

/// The top `keep_count` of [0, prefix_len) by score (the lower index wins
/// ties), ascending, followed by [prefix_len, n).
inline std::vector<std::size_t> keep_topk_plus_recent(
    std::span<const double> scores, std::size_t n, std::size_t prefix_len,
    std::size_t keep_count) {
  keep_count = std::min(keep_count, prefix_len);
  std::vector<std::size_t> order(prefix_len);
  for (std::size_t i = 0; i < prefix_len; ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + keep_count, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(keep_count);
  std::sort(order.begin(), order.end());
  for (std::size_t i = prefix_len; i < n; ++i) order.push_back(i);
  return order;
}

}  // namespace kf::kv::reference
