// Test-only oracle for the GEMM epilogues, kept as the unfused loops the
// MLP block ran before gemm_rows finished its own tiles: the plain
// product, then a bias add per row, then the tanh-approximation GELU over
// the whole hidden tensor, then a residual add. Parity tests compare the
// scalar variant against these bit for bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "cpu/kernels.h"

namespace kf::reference {

/// The historical elementwise GELU loop, in place.
inline void gelu_inplace(std::span<float> y) {
  constexpr float kSqrt2OverPi = 0.7978845608028654F;
  for (float& v : y) {
    const float c = v + 0.044715F * v * v * v;
    v = 0.5F * v * (1.0F + std::tanh(kSqrt2OverPi * c));
  }
}

/// The epilogue `form` over an m x n product `prod` (a kStore result),
/// applied to `c` as the unfused loops would: kStore copies prod;
/// kBiasGelu adds `bias` to each row and then runs the GELU; and
/// kBiasAccumulate adds `bias` to each row and then adds the result onto
/// c.
inline void epilogue(cpu::Epilogue form, std::span<const float> prod,
                     std::span<const float> bias, std::span<float> c,
                     std::size_t m, std::size_t n) {
  std::vector<float> out(prod.begin(), prod.begin() + m * n);
  if (form != cpu::Epilogue::kStore) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) out[i * n + j] += bias[j];
    }
  }
  if (form == cpu::Epilogue::kBiasGelu) gelu_inplace(out);
  for (std::size_t e = 0; e < m * n; ++e) {
    c[e] = form == cpu::Epilogue::kBiasAccumulate ? c[e] + out[e] : out[e];
  }
}

}  // namespace kf::reference
