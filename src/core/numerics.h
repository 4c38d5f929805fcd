// The dispatched softmax (plain and with temperature) and the
// distribution metrics (entropy, KL divergence) the evaluation benches
// report.
#pragma once

#include <span>

namespace kf {

/// out_i = exp(x_i - max) / sum_j exp(x_j - max). `x` and `out` may alias.
void softmax(std::span<const float> x, std::span<float> out);

/// Softmax with temperature: softmax(x / tau). Requires tau > 0.
void softmax_temperature(std::span<const float> x, std::span<float> out,
                         double tau);

/// Shannon entropy of a probability vector (natural log). Zero entries are
/// skipped. Requires p to sum approximately to 1 for a meaningful value.
double entropy(std::span<const float> p);

/// KL(p || q) with natural log; entries where p_i == 0 contribute 0, and
/// q is floored at `eps` to avoid division by zero.
double kl_divergence(std::span<const float> p, std::span<const float> q,
                     double eps = 1e-12);

}  // namespace kf
