// Scalar kernel variants: the semantics (and bit-pattern) reference for
// every wider variant. These bodies are the pre-dispatch scalar loops
// moved here verbatim — same expression shapes, same accumulator
// widths — so a KF_CPU_ISA=scalar run reproduces the historical scalar
// build bit for bit.

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpu/variants.h"

namespace kf::cpu::scalar {

namespace {

void axpy(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

float max_value(const float* x, std::size_t n) {
  float m = x[0];
  for (std::size_t i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

/// The tanh-approximation GELU, the historical elementwise expression.
float gelu(float v) {
  constexpr float kSqrt2OverPi = 0.7978845608028654F;
  const float c = v + 0.044715F * v * v * v;
  return 0.5F * v * (1.0F + std::tanh(kSqrt2OverPi * c));
}

}  // namespace

void matvec_rows(const float* a, const float* x, float* y, std::size_t r0,
                 std::size_t r1, std::size_t k) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float acc = 0.0F;
    for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * x[kk];
    y[i] = acc;
  }
}

void gemm_rows(const float* a, const float* b, float* c, std::size_t m0,
               std::size_t m1, std::size_t k, std::size_t n,
               Epilogue epilogue, const float* bias) {
  // One row at a time, in column chunks: acc = 0, then acc += a[i][kk] *
  // B[kk] for kk ascending (the pre-dispatch matmul's arithmetic), then
  // the epilogue per element: the historical bias add, GELU and residual
  // add expressions in that order. A scalar run reproduces the unfused
  // loops bit for bit.
  constexpr std::size_t kChunk = 256;
  float acc[kChunk] = {};
  for (std::size_t i = m0; i < m1; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j0 = 0; j0 < n; j0 += kChunk) {
      const std::size_t w = std::min(kChunk, n - j0);
      for (std::size_t j = 0; j < w; ++j) acc[j] = 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        const float* brow = b + kk * n + j0;
        for (std::size_t j = 0; j < w; ++j) acc[j] += aik * brow[j];
      }
      float* crow = c + i * n + j0;
      switch (epilogue) {
        case Epilogue::kStore:
          for (std::size_t j = 0; j < w; ++j) crow[j] = acc[j];
          break;
        case Epilogue::kBiasGelu:
          for (std::size_t j = 0; j < w; ++j) {
            crow[j] = gelu(acc[j] + bias[j0 + j]);
          }
          break;
        case Epilogue::kBiasAccumulate:
          for (std::size_t j = 0; j < w; ++j) {
            crow[j] = crow[j] + (acc[j] + bias[j0 + j]);
          }
          break;
      }
    }
  }
}

void softmax(const float* x, float* out, std::size_t n, double tau) {
  const float m = max_value(x, n);
  // Every entry masked to -inf: there is no distribution to normalize
  // (and -inf - -inf below would be NaN). Return the all-zero row
  // (matching the "masked entries are 0" convention) instead of fanning
  // NaN out through the caller.
  if (m == -std::numeric_limits<float>::infinity()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0F;
    return;
  }
  // Division by tau == 1.0 is exact, so the plain softmax and the
  // temperature form share this one body bit-identically.
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::exp(static_cast<double>(x[i] - m) / tau);
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t i = 0; i < n; ++i) out[i] *= inv;
}

void decode_attend(const KvSegmentView* segs, std::size_t n_segs,
                   const float* q_head, std::size_t dh, float scale,
                   const float* bias, const float* keys_override, float* lrow,
                   float* prow, float* ctx, std::size_t key_len) {
  // Dot products, streaming the head's contiguous segments (one segment
  // for the classic arena, one per block for a paged cache). Each output
  // logit is an independent row dot, so segmentation never changes the
  // arithmetic — paged and contiguous caches are bit-exact. Only the rows
  // below key_len are read, so attend_rows can pass every row the views
  // of its last row.
  const auto rows_below = [key_len](const KvSegmentView& seg) {
    return seg.first < key_len ? std::min(seg.count, key_len - seg.first)
                               : std::size_t{0};
  };
  if (keys_override != nullptr) {
    matvec_rows(keys_override, q_head, lrow, 0, key_len, dh);
  } else {
    for (std::size_t s = 0; s < n_segs; ++s) {
      const KvSegmentView& seg = segs[s];
      matvec_rows(seg.keys, q_head, lrow + seg.first, 0, rows_below(seg), dh);
    }
  }

  if (bias != nullptr) {
    for (std::size_t i = 0; i < key_len; ++i) {
      lrow[i] = lrow[i] * scale + bias[i];
    }
  } else {
    for (std::size_t i = 0; i < key_len; ++i) lrow[i] *= scale;
  }

  // Fused pass: stable softmax and weighted-value accumulation together.
  // exp terms accumulate into the context unnormalized; one final scale
  // by 1/sum normalizes probs and context alike. V rows stream segment
  // by segment in ascending index order — the same accumulation sequence
  // as a single contiguous run.
  float m = lrow[0];
  for (std::size_t i = 1; i < key_len; ++i) m = lrow[i] > m ? lrow[i] : m;
  for (std::size_t j = 0; j < dh; ++j) ctx[j] = 0.0F;
  double sum = 0.0;
  for (std::size_t s = 0; s < n_segs; ++s) {
    const KvSegmentView& seg = segs[s];
    const std::size_t count = rows_below(seg);
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t i = seg.first + r;
      const double e = std::exp(static_cast<double>(lrow[i] - m));
      const float ef = static_cast<float>(e);
      prow[i] = ef;
      sum += e;
      axpy(ef, seg.values + r * dh, ctx, dh);
    }
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t i = 0; i < key_len; ++i) prow[i] *= inv;
  for (std::size_t j = 0; j < dh; ++j) ctx[j] *= inv;
}

void attend_rows(const KvSegmentView* segs, std::size_t n_segs,
                 const float* q, std::size_t dh, float scale, const float* bias,
                 const float* keys_override, float* lrow, float* prow,
                 std::size_t row_stride, float* ctx, std::size_t ctx_stride,
                 std::size_t key_len, std::size_t n_rows) {
  // Row r is decode_attend over its key_len + r keys, which reads only
  // the segments' rows below its key_len.
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t o = r * row_stride;
    decode_attend(segs, n_segs, q + r * dh, dh, scale,
                  bias != nullptr ? bias + o : nullptr, keys_override,
                  lrow + o, prow + o, ctx + r * ctx_stride, key_len + r);
  }
}

void score_increments(const float* logits, const double* noise, double* out,
                      std::size_t n, double tau) {
  // The pre-dispatch score-increment loop moved verbatim; a null noise row is
  // its zero adjustment. noise[i] is read before out[i] is written, so
  // noise == out aliasing is fine.
  double max_y = -1e300;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = noise != nullptr ? noise[i] : 0.0;
    const double y = static_cast<double>(logits[i]) + z;
    out[i] = y;
    max_y = y > max_y ? y : max_y;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::exp((out[i] - max_y) / tau);
    sum += out[i];
  }
  if (sum == 0.0) {  // fully masked row: no distribution, emit zeros
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
    return;
  }
  const double inv = 1.0 / sum;
  for (std::size_t i = 0; i < n; ++i) out[i] *= inv;
}

}  // namespace kf::cpu::scalar
