#include "core/numerics.h"

#include <cassert>
#include <cmath>

#include "cpu/kernels.h"

namespace kf {

// The softmax body lives in the per-ISA variants under src/cpu (the
// scalar variant is the historical loop, moved verbatim); these wrappers
// keep the spans/asserts and resolve the dispatch table.

void softmax(std::span<const float> x, std::span<float> out) {
  assert(x.size() == out.size() && !x.empty());
  // tau == 1.0 divides exactly: the temperature kernel with unit tau IS
  // the plain softmax, bit for bit.
  cpu::softmax_stub.get()(x.data(), out.data(), x.size(), 1.0);
}

void softmax_temperature(std::span<const float> x, std::span<float> out,
                         double tau) {
  assert(tau > 0.0 && x.size() == out.size() && !x.empty());
  cpu::softmax_stub.get()(x.data(), out.data(), x.size(), tau);
}

double entropy(std::span<const float> p) {
  double h = 0.0;
  for (const float v : p) {
    if (v > 0.0F) {
      h -= static_cast<double>(v) * std::log(static_cast<double>(v));
    }
  }
  return h;
}

double kl_divergence(std::span<const float> p, std::span<const float> q,
                     double eps) {
  assert(p.size() == q.size());
  double kl = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0F) continue;
    const double pi = p[i];
    const double qi = q[i] > eps ? q[i] : eps;
    kl += pi * std::log(pi / qi);
  }
  return kl;
}

}  // namespace kf
