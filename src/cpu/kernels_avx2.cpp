// AVX2 + FMA kernel variants. This TU (alone) is compiled with
// -mavx2 -mfma; it is only ever reached through the dispatch tables,
// and only on hosts where cpu_isa.cpp detected AVX2 support.
//
// Numerics: dots/accumulations run 8 float lanes with FMA; gemm_rows
// gives every output element one FMA per k step, in ascending k, whether
// it lands in a register block, a vector or a scalar std::fma; exp runs a
// Cephes-style degree-5 polynomial (~1 ulp over the reduced range), and
// softmax sums accumulate in double lanes, keeping every variant within
// the 1e-5 parity budget against the scalar reference (pinned by
// test_simd_kernels). gemm_rows' GELU epilogue runs the same exp as
// v / (1 + exp(-2u)). Inputs below the exp underflow cutoff
// flush to exactly 0.0f — masked (-inf) logits must produce probability
// exactly 0, same as the scalar std::exp(-inf) path.
//
// All loads/stores are unaligned (loadu/storeu): the 64-byte allocation
// alignment of KV arenas (core/aligned.h) makes segment *starts* cheap,
// but interior rows land wherever d_head puts them.

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cpu/variants.h"

namespace kf::cpu::avx2 {

namespace {

/// Horizontal sum of 8 float lanes, in double (the callers accumulate
/// sums in double; summing lanes pairwise in double keeps the order
/// deterministic).
inline double hsum_pd(__m256 v) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  const __m256d s = _mm256_add_pd(lo, hi);
  const __m128d s2 =
      _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

/// Horizontal sum of 4 double lanes.
inline double hsum_pd(__m256d v) {
  const __m128d s =
      _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Horizontal max of 4 double lanes.
inline double hmax_pd(__m256d v) {
  const __m128d m =
      _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
}

/// Horizontal sum of 8 float lanes in float.
inline float hsum_ps(__m256 v) {
  const __m128 s =
      _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
}

/// Horizontal max of 8 float lanes.
inline float hmax_ps(__m256 v) {
  const __m128 m =
      _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 m2 = _mm_max_ps(m, _mm_movehl_ps(m, m));
  return _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1)));
}

/// e^x for 8 lanes: Cephes-style range reduction (two-part ln 2) plus a
/// degree-5 polynomial. Lanes below kExpLowest — including -inf — return
/// exactly 0.0f; lanes above kExpHighest saturate near FLT_MAX.
inline __m256 exp256_ps(__m256 x) {
  const __m256 k_log2e = _mm256_set1_ps(1.44269504088896341F);
  const __m256 k_c1 = _mm256_set1_ps(0.693359375F);
  const __m256 k_c2 = _mm256_set1_ps(-2.12194440e-4F);
  const __m256 k_p0 = _mm256_set1_ps(1.9875691500e-4F);
  const __m256 k_p1 = _mm256_set1_ps(1.3981999507e-3F);
  const __m256 k_p2 = _mm256_set1_ps(8.3334519073e-3F);
  const __m256 k_p3 = _mm256_set1_ps(4.1665795894e-2F);
  const __m256 k_p4 = _mm256_set1_ps(1.6666665459e-1F);
  const __m256 k_p5 = _mm256_set1_ps(5.0000001201e-1F);
  const __m256 k_one = _mm256_set1_ps(1.0F);
  const __m256 k_lowest = _mm256_set1_ps(-87.33654F);
  const __m256 k_highest = _mm256_set1_ps(88.72283F);

  // Underflow lanes (and -inf, whose reduced form below is NaN) are
  // forced to exactly zero at the end.
  const __m256 zero_mask = _mm256_cmp_ps(x, k_lowest, _CMP_LT_OQ);
  x = _mm256_min_ps(x, k_highest);

  // n = round(x * log2 e); r = x - n*ln2 in two parts for accuracy.
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, k_log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, k_c1, x);
  r = _mm256_fnmadd_ps(n, k_c2, r);
  const __m256 r2 = _mm256_mul_ps(r, r);

  __m256 p = k_p0;
  p = _mm256_fmadd_ps(p, r, k_p1);
  p = _mm256_fmadd_ps(p, r, k_p2);
  p = _mm256_fmadd_ps(p, r, k_p3);
  p = _mm256_fmadd_ps(p, r, k_p4);
  p = _mm256_fmadd_ps(p, r, k_p5);
  p = _mm256_fmadd_ps(p, r2, _mm256_add_ps(r, k_one));

  // Scale by 2^n via exponent-bit construction (n stays in [-126, 128]
  // after the clamps above, so the biased exponent never wraps).
  const __m256i biased =
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
  const __m256 pow2 = _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
  p = _mm256_mul_ps(p, pow2);
  return _mm256_andnot_ps(zero_mask, p);
}

/// GELU for 8 lanes as v / (1 + e^(-2u)), u = sqrt(2/pi) (v + 0.044715 v^3):
/// the scalar variant's 0.5 v (1 + tanh u) with tanh written over exp.
/// Far below zero e^(-2u) overflows to +inf and the lane is a signed 0.
inline __m256 gelu256_ps(__m256 v) {
  const __m256 k_scale = _mm256_set1_ps(-2.0F * 0.7978845608028654F);
  const __m256 k_cubic = _mm256_set1_ps(0.044715F);
  const __m256 inner =
      _mm256_fmadd_ps(_mm256_mul_ps(k_cubic, _mm256_mul_ps(v, v)), v, v);
  const __m256 e = exp256_ps(_mm256_mul_ps(k_scale, inner));
  return _mm256_div_ps(v, _mm256_add_ps(_mm256_set1_ps(1.0F), e));
}

/// Finishes the 8 columns of C at `c`, columns j.. of its row, from their
/// accumulators: `epilogue` with bias[j..] (see kernels.h), then a store.
inline void finish8(__m256 acc, float* c, Epilogue epilogue,
                    const float* bias, std::size_t j) {
  switch (epilogue) {
    case Epilogue::kStore:
      break;
    case Epilogue::kBiasGelu:
      acc = gelu256_ps(_mm256_add_ps(acc, _mm256_loadu_ps(bias + j)));
      break;
    case Epilogue::kBiasAccumulate:
      acc = _mm256_add_ps(_mm256_loadu_ps(c),
                          _mm256_add_ps(acc, _mm256_loadu_ps(bias + j)));
      break;
  }
  _mm256_storeu_ps(c, acc);
}

/// finish8 for one column tail element (GELU through one broadcast vector).
inline void finish1(float acc, float* c, Epilogue epilogue, const float* bias,
                    std::size_t j) {
  switch (epilogue) {
    case Epilogue::kStore:
      *c = acc;
      break;
    case Epilogue::kBiasGelu:
      *c = _mm256_cvtss_f32(gelu256_ps(_mm256_set1_ps(acc + bias[j])));
      break;
    case Epilogue::kBiasAccumulate:
      *c = *c + (acc + bias[j]);
      break;
  }
}

/// Columns [j0, j1) of the row y = x * B for the [k, n] matrix B: each
/// y[j] starts at 0 and takes fma(x[kk], B[kk][j], y[j]) for kk ascending,
/// then leaves through `epilogue`. Four vectors at a time accumulate in
/// registers across k, then single vectors, then scalar std::fma columns.
/// A gemm_rows row computed alone is this over [0, n).
void vecmat_cols(const float* x, const float* b, float* y, std::size_t k,
                 std::size_t n, std::size_t j0, std::size_t j1,
                 Epilogue epilogue, const float* bias) {
  std::size_t j = j0;
  for (; j + 32 <= j1; j += 32) {
    __m256 y0 = _mm256_setzero_ps();
    __m256 y1 = _mm256_setzero_ps();
    __m256 y2 = _mm256_setzero_ps();
    __m256 y3 = _mm256_setzero_ps();
    const float* bk = b + j;
    for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
      const __m256 vx = _mm256_set1_ps(x[kk]);
      y0 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(bk), y0);
      y1 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(bk + 8), y1);
      y2 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(bk + 16), y2);
      y3 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(bk + 24), y3);
    }
    finish8(y0, y + j, epilogue, bias, j);
    finish8(y1, y + j + 8, epilogue, bias, j + 8);
    finish8(y2, y + j + 16, epilogue, bias, j + 16);
    finish8(y3, y + j + 24, epilogue, bias, j + 24);
  }
  for (; j + 8 <= j1; j += 8) {
    __m256 y0 = _mm256_setzero_ps();
    const float* bk = b + j;
    for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
      y0 = _mm256_fmadd_ps(_mm256_set1_ps(x[kk]), _mm256_loadu_ps(bk), y0);
    }
    finish8(y0, y + j, epilogue, bias, j);
  }
  for (; j < j1; ++j) {
    float acc = 0.0F;
    for (std::size_t kk = 0; kk < k; ++kk) {
      acc = std::fma(x[kk], b[kk * n + j], acc);
    }
    finish1(acc, y + j, epilogue, bias, j);
  }
}

float dot(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float acc = hsum_ps(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(float a, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy =
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float max_value(const float* x, std::size_t n) {
  float m = x[0];
  std::size_t i = 0;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
    }
    m = hmax_ps(vm);
  }
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

}  // namespace

void matvec_rows(const float* a, const float* x, float* y, std::size_t r0,
                 std::size_t r1, std::size_t k) {
  for (std::size_t i = r0; i < r1; ++i) y[i] = dot(a + i * k, x, k);
}

void gemm_rows(const float* a, const float* b, float* c, std::size_t m0,
               std::size_t m1, std::size_t k, std::size_t n,
               Epilogue epilogue, const float* bias) {
  // Register blocks of 4 rows x 16 columns (8 accumulators): each pair of
  // B vectors loaded per k step feeds four rows. Column strips are the
  // outer loop, so a strip of B is reused by every row block while it is
  // still cached. Column tails and leftover rows go through vecmat_cols.
  // Every path gives an element the same FMA chain over ascending k from
  // 0 and the same epilogue, so a row's bits equal the row computed
  // alone.
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kCols = 16;
  const std::size_t n_block = n - n % kCols;
  const std::size_t m_block = m0 + (m1 - m0) / kRows * kRows;
  for (std::size_t j = 0; j < n_block; j += kCols) {
    for (std::size_t i = m0; i < m_block; i += kRows) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      __m256 c00 = _mm256_setzero_ps();
      __m256 c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps();
      __m256 c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps();
      __m256 c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps();
      __m256 c31 = _mm256_setzero_ps();
      const float* bk = b + j;
      for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        __m256 x = _mm256_set1_ps(a0[kk]);
        c00 = _mm256_fmadd_ps(x, b0, c00);
        c01 = _mm256_fmadd_ps(x, b1, c01);
        x = _mm256_set1_ps(a1[kk]);
        c10 = _mm256_fmadd_ps(x, b0, c10);
        c11 = _mm256_fmadd_ps(x, b1, c11);
        x = _mm256_set1_ps(a2[kk]);
        c20 = _mm256_fmadd_ps(x, b0, c20);
        c21 = _mm256_fmadd_ps(x, b1, c21);
        x = _mm256_set1_ps(a3[kk]);
        c30 = _mm256_fmadd_ps(x, b0, c30);
        c31 = _mm256_fmadd_ps(x, b1, c31);
      }
      float* c0 = c + i * n + j;
      finish8(c00, c0, epilogue, bias, j);
      finish8(c01, c0 + 8, epilogue, bias, j + 8);
      finish8(c10, c0 + n, epilogue, bias, j);
      finish8(c11, c0 + n + 8, epilogue, bias, j + 8);
      finish8(c20, c0 + 2 * n, epilogue, bias, j);
      finish8(c21, c0 + 2 * n + 8, epilogue, bias, j + 8);
      finish8(c30, c0 + 3 * n, epilogue, bias, j);
      finish8(c31, c0 + 3 * n + 8, epilogue, bias, j + 8);
    }
  }
  for (std::size_t i = m0; i < m_block; ++i) {
    vecmat_cols(a + i * k, b, c + i * n, k, n, n_block, n, epilogue, bias);
  }
  for (std::size_t i = m_block; i < m1; ++i) {
    vecmat_cols(a + i * k, b, c + i * n, k, n, 0, n, epilogue, bias);
  }
}

void softmax(const float* x, float* out, std::size_t n, double tau) {
  const float m = max_value(x, n);
  if (m == -std::numeric_limits<float>::infinity()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0F;
    return;
  }
  const __m256 vm = _mm256_set1_ps(m);
  const float inv_tau_f = static_cast<float>(1.0 / tau);
  const __m256 v_inv_tau = _mm256_set1_ps(inv_tau_f);
  const bool unit_tau = tau == 1.0;
  double sum = 0.0;
  std::size_t i = 0;
  // x is read before out is written at every index, so out == x aliasing
  // (softmax in place) is fine.
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_sub_ps(_mm256_loadu_ps(x + i), vm);
    if (!unit_tau) t = _mm256_mul_ps(t, v_inv_tau);
    const __m256 e = exp256_ps(t);
    _mm256_storeu_ps(out + i, e);
    sum += hsum_pd(e);
  }
  for (; i < n; ++i) {
    const double e = std::exp(static_cast<double>(x[i] - m) / tau);
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(out + i), vinv));
  }
  for (; i < n; ++i) out[i] *= inv;
}

void decode_attend(const KvSegmentView* segs, std::size_t n_segs,
                   const float* q_head, std::size_t dh, float scale,
                   const float* bias, const float* keys_override, float* lrow,
                   float* prow, float* ctx, std::size_t key_len) {
  if (keys_override != nullptr) {
    matvec_rows(keys_override, q_head, lrow, 0, key_len, dh);
  } else {
    for (std::size_t s = 0; s < n_segs; ++s) {
      const KvSegmentView& seg = segs[s];
      matvec_rows(seg.keys, q_head, lrow + seg.first, 0, seg.count, dh);
    }
  }

  const __m256 vscale = _mm256_set1_ps(scale);
  std::size_t i = 0;
  if (bias != nullptr) {
    for (; i + 8 <= key_len; i += 8) {
      const __m256 v = _mm256_fmadd_ps(_mm256_loadu_ps(lrow + i), vscale,
                                       _mm256_loadu_ps(bias + i));
      _mm256_storeu_ps(lrow + i, v);
    }
    for (; i < key_len; ++i) lrow[i] = lrow[i] * scale + bias[i];
  } else {
    for (; i + 8 <= key_len; i += 8) {
      _mm256_storeu_ps(lrow + i,
                       _mm256_mul_ps(_mm256_loadu_ps(lrow + i), vscale));
    }
    for (; i < key_len; ++i) lrow[i] *= scale;
  }

  // Unnormalized softmax over the logits (the caller passes only the
  // visible keys: a decode row the whole cache, a prompt row its clipped
  // prefix, so no -inf reaches here), then a second pass accumulates
  // p_i * V_i with vectorized row axpys; one final 1/sum normalizes
  // probabilities and context together.
  const float m = max_value(lrow, key_len);
  const __m256 vm = _mm256_set1_ps(m);
  double sum = 0.0;
  i = 0;
  for (; i + 8 <= key_len; i += 8) {
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(lrow + i), vm));
    _mm256_storeu_ps(prow + i, e);
    sum += hsum_pd(e);
  }
  for (; i < key_len; ++i) {
    const double e = std::exp(static_cast<double>(lrow[i] - m));
    prow[i] = static_cast<float>(e);
    sum += e;
  }

  for (std::size_t j = 0; j < dh; ++j) ctx[j] = 0.0F;
  for (std::size_t s = 0; s < n_segs; ++s) {
    const KvSegmentView& seg = segs[s];
    for (std::size_t r = 0; r < seg.count; ++r) {
      axpy(prow[seg.first + r], seg.values + r * dh, ctx, dh);
    }
  }

  const float inv = static_cast<float>(1.0 / sum);
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 8 <= key_len; i += 8) {
    _mm256_storeu_ps(prow + i, _mm256_mul_ps(_mm256_loadu_ps(prow + i), vinv));
  }
  for (; i < key_len; ++i) prow[i] *= inv;
  for (std::size_t j = 0; j < dh; ++j) ctx[j] *= inv;
}

void score_increments(const float* logits, const double* noise, double* out,
                      std::size_t n, double tau) {
  // The scalar variant's three passes, 8 entries a step: y and the max
  // in double lanes, (y - max) / tau narrowed to float for exp256_ps and
  // widened back, the sum and the 1/sum scale in double lanes. Tails take
  // the scalar expressions. A -inf y stays -inf through the narrowing, so
  // its exp lane is exactly 0.
  __m256d vmax = _mm256_set1_pd(-1e300);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d y0 = _mm256_cvtps_pd(_mm_loadu_ps(logits + i));
    __m256d y1 = _mm256_cvtps_pd(_mm_loadu_ps(logits + i + 4));
    if (noise != nullptr) {
      y0 = _mm256_add_pd(y0, _mm256_loadu_pd(noise + i));
      y1 = _mm256_add_pd(y1, _mm256_loadu_pd(noise + i + 4));
    }
    _mm256_storeu_pd(out + i, y0);
    _mm256_storeu_pd(out + i + 4, y1);
    vmax = _mm256_max_pd(vmax, _mm256_max_pd(y0, y1));
  }
  double max_y = hmax_pd(vmax);
  for (; i < n; ++i) {
    const double z = noise != nullptr ? noise[i] : 0.0;
    const double y = static_cast<double>(logits[i]) + z;
    out[i] = y;
    max_y = y > max_y ? y : max_y;
  }

  const __m256d vm = _mm256_set1_pd(max_y);
  const __m256d v_inv_tau = _mm256_set1_pd(1.0 / tau);
  __m256d vsum0 = _mm256_setzero_pd();
  __m256d vsum1 = _mm256_setzero_pd();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(out + i), vm);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(out + i + 4), vm);
    const __m128 t0 = _mm256_cvtpd_ps(_mm256_mul_pd(d0, v_inv_tau));
    const __m128 t1 = _mm256_cvtpd_ps(_mm256_mul_pd(d1, v_inv_tau));
    const __m256 e =
        exp256_ps(_mm256_insertf128_ps(_mm256_castps128_ps256(t0), t1, 1));
    const __m256d e0 = _mm256_cvtps_pd(_mm256_castps256_ps128(e));
    const __m256d e1 = _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1));
    _mm256_storeu_pd(out + i, e0);
    _mm256_storeu_pd(out + i + 4, e1);
    vsum0 = _mm256_add_pd(vsum0, e0);
    vsum1 = _mm256_add_pd(vsum1, e1);
  }
  double sum = hsum_pd(_mm256_add_pd(vsum0, vsum1));
  for (; i < n; ++i) {
    out[i] = std::exp((out[i] - max_y) / tau);
    sum += out[i];
  }
  if (sum == 0.0) {
    for (i = 0; i < n; ++i) out[i] = 0.0;
    return;
  }
  const double inv = 1.0 / sum;
  const __m256d vinv = _mm256_set1_pd(inv);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(out + i), vinv));
  }
  for (; i < n; ++i) out[i] *= inv;
}

}  // namespace kf::cpu::avx2
