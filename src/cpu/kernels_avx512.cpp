// AVX-512 (F/BW/DQ/VL + FMA) kernel variants: the AVX2 structure widened
// to 16 float lanes. This TU (alone) is compiled with -mavx512* flags and
// is only reached through the dispatch tables on hosts that support it.
// See kernels_avx2.cpp for the numerics notes (one FMA per gemm_rows
// element and k step, exp polynomial, GELU over exp, double sum
// accumulation, exact-zero underflow for masked logits) — identical here,
// lane width aside.

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cpu/variants.h"

namespace kf::cpu::avx512 {

namespace {

// GCC 12's unmasked forms of _mm512_min_ps, _mm512_cvtps_pd,
// _mm512_extractf64x4_pd (behind _mm512_castps512_ps256 and the
// _mm512_reduce_* macros) and others pass _mm512_undefined_*(), which is
// `__Y = __Y`, as the merge operand, and -Wmaybe-uninitialized reports it
// wherever they inline. This TU calls the zero-masking forms under a full
// mask instead: the same operation on every lane, with nothing merged.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

/// Horizontal sum of 8 double lanes, paired as _mm512_reduce_add_pd
/// pairs them: lane i with i + 4, then with i + 2, then lane 0 with 1.
inline double hsum_pd(__m512d v) {
  const __m256d s = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(kAll8, v, 1),
                                  _mm512_maskz_extractf64x4_pd(kAll8, v, 0));
  const __m128d s2 =
      _mm_add_pd(_mm256_extractf128_pd(s, 1), _mm256_castpd256_pd128(s));
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

/// Horizontal sum of 16 float lanes, accumulated in double.
inline double hsum_pd(__m512 v) {
  const __m512d lo =
      _mm512_maskz_cvtps_pd(kAll8, _mm512_extractf32x8_ps(v, 0));
  const __m512d hi =
      _mm512_maskz_cvtps_pd(kAll8, _mm512_extractf32x8_ps(v, 1));
  return hsum_pd(_mm512_add_pd(lo, hi));
}

/// Horizontal max of 8 double lanes, in _mm512_reduce_max_pd's operand
/// order (max returns its second operand on ties and NaNs).
inline double hmax_pd(__m512d v) {
  const __m256d m = _mm256_max_pd(_mm512_maskz_extractf64x4_pd(kAll8, v, 1),
                                  _mm512_maskz_extractf64x4_pd(kAll8, v, 0));
  const __m128d m2 =
      _mm_max_pd(_mm256_extractf128_pd(m, 1), _mm256_castpd256_pd128(m));
  return _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
}

/// Horizontal sum of 16 float lanes in float, paired as
/// _mm512_reduce_add_ps pairs them.
inline float hsum_ps(__m512 v) {
  const __m256 s = _mm256_add_ps(_mm512_extractf32x8_ps(v, 1),
                                 _mm512_extractf32x8_ps(v, 0));
  const __m128 s2 =
      _mm_add_ps(_mm256_extractf128_ps(s, 1), _mm256_castps256_ps128(s));
  const __m128 s3 = _mm_add_ps(s2, _mm_movehl_ps(s2, s2));
  return _mm_cvtss_f32(_mm_add_ss(s3, _mm_shuffle_ps(s3, s3, 1)));
}

/// Horizontal max of 16 float lanes, in _mm512_reduce_max_ps's operand
/// order.
inline float hmax_ps(__m512 v) {
  const __m256 m = _mm256_max_ps(_mm512_extractf32x8_ps(v, 1),
                                 _mm512_extractf32x8_ps(v, 0));
  const __m128 m2 =
      _mm_max_ps(_mm256_extractf128_ps(m, 1), _mm256_castps256_ps128(m));
  const __m128 m3 = _mm_max_ps(m2, _mm_movehl_ps(m2, m2));
  return _mm_cvtss_f32(_mm_max_ss(m3, _mm_shuffle_ps(m3, m3, 1)));
}

/// e^x for 16 lanes; same Cephes-style reduction and polynomial as the
/// AVX2 variant. Lanes below the underflow cutoff (including -inf)
/// return exactly 0.0f.
inline __m512 exp512_ps(__m512 x) {
  const __m512 k_log2e = _mm512_set1_ps(1.44269504088896341F);
  const __m512 k_c1 = _mm512_set1_ps(0.693359375F);
  const __m512 k_c2 = _mm512_set1_ps(-2.12194440e-4F);
  const __m512 k_p0 = _mm512_set1_ps(1.9875691500e-4F);
  const __m512 k_p1 = _mm512_set1_ps(1.3981999507e-3F);
  const __m512 k_p2 = _mm512_set1_ps(8.3334519073e-3F);
  const __m512 k_p3 = _mm512_set1_ps(4.1665795894e-2F);
  const __m512 k_p4 = _mm512_set1_ps(1.6666665459e-1F);
  const __m512 k_p5 = _mm512_set1_ps(5.0000001201e-1F);
  const __m512 k_one = _mm512_set1_ps(1.0F);
  const __m512 k_lowest = _mm512_set1_ps(-87.33654F);
  const __m512 k_highest = _mm512_set1_ps(88.72283F);

  const __mmask16 live = _mm512_cmp_ps_mask(x, k_lowest, _CMP_GE_OQ);
  x = _mm512_maskz_min_ps(kAll16, x, k_highest);

  const __m512 n =
      _mm512_maskz_roundscale_ps(kAll16, _mm512_mul_ps(x, k_log2e),
                                 _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, k_c1, x);
  r = _mm512_fnmadd_ps(n, k_c2, r);
  const __m512 r2 = _mm512_mul_ps(r, r);

  __m512 p = k_p0;
  p = _mm512_fmadd_ps(p, r, k_p1);
  p = _mm512_fmadd_ps(p, r, k_p2);
  p = _mm512_fmadd_ps(p, r, k_p3);
  p = _mm512_fmadd_ps(p, r, k_p4);
  p = _mm512_fmadd_ps(p, r, k_p5);
  p = _mm512_fmadd_ps(p, r2, _mm512_add_ps(r, k_one));

  const __m512i biased = _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAll16, n),
                                          _mm512_set1_epi32(127));
  p = _mm512_mul_ps(
      p, _mm512_castsi512_ps(_mm512_maskz_slli_epi32(kAll16, biased, 23)));
  return _mm512_maskz_mov_ps(live, p);
}

/// GELU for 16 lanes as v / (1 + e^(-2u)), u = sqrt(2/pi) (v +
/// 0.044715 v^3), as in the AVX2 variant.
inline __m512 gelu512_ps(__m512 v) {
  const __m512 k_scale = _mm512_set1_ps(-2.0F * 0.7978845608028654F);
  const __m512 k_cubic = _mm512_set1_ps(0.044715F);
  const __m512 inner =
      _mm512_fmadd_ps(_mm512_mul_ps(k_cubic, _mm512_mul_ps(v, v)), v, v);
  const __m512 e = exp512_ps(_mm512_mul_ps(k_scale, inner));
  return _mm512_div_ps(v, _mm512_add_ps(_mm512_set1_ps(1.0F), e));
}

/// Finishes the 16 columns of C at `c`, columns j.. of its row, from their
/// accumulators: `epilogue` with bias[j..] (see kernels.h), then a store.
inline void finish16(__m512 acc, float* c, Epilogue epilogue,
                     const float* bias, std::size_t j) {
  switch (epilogue) {
    case Epilogue::kStore:
      break;
    case Epilogue::kBiasGelu:
      acc = gelu512_ps(_mm512_add_ps(acc, _mm512_loadu_ps(bias + j)));
      break;
    case Epilogue::kBiasAccumulate:
      acc = _mm512_add_ps(_mm512_loadu_ps(c),
                          _mm512_add_ps(acc, _mm512_loadu_ps(bias + j)));
      break;
  }
  _mm512_storeu_ps(c, acc);
}

/// finish16 for one column tail element (GELU through one broadcast vector).
inline void finish1(float acc, float* c, Epilogue epilogue, const float* bias,
                    std::size_t j) {
  switch (epilogue) {
    case Epilogue::kStore:
      *c = acc;
      break;
    case Epilogue::kBiasGelu:
      *c = _mm512_cvtss_f32(gelu512_ps(_mm512_set1_ps(acc + bias[j])));
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
  for (; j + 64 <= j1; j += 64) {
    __m512 y0 = _mm512_setzero_ps();
    __m512 y1 = _mm512_setzero_ps();
    __m512 y2 = _mm512_setzero_ps();
    __m512 y3 = _mm512_setzero_ps();
    const float* bk = b + j;
    for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
      const __m512 vx = _mm512_set1_ps(x[kk]);
      y0 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(bk), y0);
      y1 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(bk + 16), y1);
      y2 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(bk + 32), y2);
      y3 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(bk + 48), y3);
    }
    finish16(y0, y + j, epilogue, bias, j);
    finish16(y1, y + j + 16, epilogue, bias, j + 16);
    finish16(y2, y + j + 32, epilogue, bias, j + 32);
    finish16(y3, y + j + 48, epilogue, bias, j + 48);
  }
  for (; j + 16 <= j1; j += 16) {
    __m512 y0 = _mm512_setzero_ps();
    const float* bk = b + j;
    for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
      y0 = _mm512_fmadd_ps(_mm512_set1_ps(x[kk]), _mm512_loadu_ps(bk), y0);
    }
    finish16(y0, y + j, epilogue, bias, j);
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
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  float acc = hsum_ps(_mm512_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(float a, const float* x, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i),
                                            _mm512_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float max_value(const float* x, std::size_t n) {
  float m = x[0];
  std::size_t i = 0;
  if (n >= 16) {
    __m512 vm = _mm512_loadu_ps(x);
    for (i = 16; i + 16 <= n; i += 16) {
      vm = _mm512_maskz_max_ps(kAll16, vm, _mm512_loadu_ps(x + i));
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
  // The AVX2 blocking widened: 4 rows x 32 columns in 8 accumulators,
  // column strips outermost, tails and leftover rows through vecmat_cols;
  // every path gives an element the same FMA chain over ascending k and
  // the same epilogue.
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kCols = 32;
  const std::size_t n_block = n - n % kCols;
  const std::size_t m_block = m0 + (m1 - m0) / kRows * kRows;
  for (std::size_t j = 0; j < n_block; j += kCols) {
    for (std::size_t i = m0; i < m_block; i += kRows) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      __m512 c00 = _mm512_setzero_ps();
      __m512 c01 = _mm512_setzero_ps();
      __m512 c10 = _mm512_setzero_ps();
      __m512 c11 = _mm512_setzero_ps();
      __m512 c20 = _mm512_setzero_ps();
      __m512 c21 = _mm512_setzero_ps();
      __m512 c30 = _mm512_setzero_ps();
      __m512 c31 = _mm512_setzero_ps();
      const float* bk = b + j;
      for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
        const __m512 b0 = _mm512_loadu_ps(bk);
        const __m512 b1 = _mm512_loadu_ps(bk + 16);
        __m512 x = _mm512_set1_ps(a0[kk]);
        c00 = _mm512_fmadd_ps(x, b0, c00);
        c01 = _mm512_fmadd_ps(x, b1, c01);
        x = _mm512_set1_ps(a1[kk]);
        c10 = _mm512_fmadd_ps(x, b0, c10);
        c11 = _mm512_fmadd_ps(x, b1, c11);
        x = _mm512_set1_ps(a2[kk]);
        c20 = _mm512_fmadd_ps(x, b0, c20);
        c21 = _mm512_fmadd_ps(x, b1, c21);
        x = _mm512_set1_ps(a3[kk]);
        c30 = _mm512_fmadd_ps(x, b0, c30);
        c31 = _mm512_fmadd_ps(x, b1, c31);
      }
      float* c0 = c + i * n + j;
      finish16(c00, c0, epilogue, bias, j);
      finish16(c01, c0 + 16, epilogue, bias, j + 16);
      finish16(c10, c0 + n, epilogue, bias, j);
      finish16(c11, c0 + n + 16, epilogue, bias, j + 16);
      finish16(c20, c0 + 2 * n, epilogue, bias, j);
      finish16(c21, c0 + 2 * n + 16, epilogue, bias, j + 16);
      finish16(c30, c0 + 3 * n, epilogue, bias, j);
      finish16(c31, c0 + 3 * n + 16, epilogue, bias, j + 16);
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
  const __m512 vm = _mm512_set1_ps(m);
  const __m512 v_inv_tau = _mm512_set1_ps(static_cast<float>(1.0 / tau));
  const bool unit_tau = tau == 1.0;
  double sum = 0.0;
  std::size_t i = 0;
  // x is read before out is written at every index: aliasing-safe.
  for (; i + 16 <= n; i += 16) {
    __m512 t = _mm512_sub_ps(_mm512_loadu_ps(x + i), vm);
    if (!unit_tau) t = _mm512_mul_ps(t, v_inv_tau);
    const __m512 e = exp512_ps(t);
    _mm512_storeu_ps(out + i, e);
    sum += hsum_pd(e);
  }
  for (; i < n; ++i) {
    const double e = std::exp(static_cast<double>(x[i] - m) / tau);
    out[i] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  const __m512 vinv = _mm512_set1_ps(inv);
  i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(out + i), vinv));
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

  const __m512 vscale = _mm512_set1_ps(scale);
  std::size_t i = 0;
  if (bias != nullptr) {
    for (; i + 16 <= key_len; i += 16) {
      _mm512_storeu_ps(lrow + i,
                       _mm512_fmadd_ps(_mm512_loadu_ps(lrow + i), vscale,
                                       _mm512_loadu_ps(bias + i)));
    }
    for (; i < key_len; ++i) lrow[i] = lrow[i] * scale + bias[i];
  } else {
    for (; i + 16 <= key_len; i += 16) {
      _mm512_storeu_ps(lrow + i,
                       _mm512_mul_ps(_mm512_loadu_ps(lrow + i), vscale));
    }
    for (; i < key_len; ++i) lrow[i] *= scale;
  }

  const float m = max_value(lrow, key_len);
  const __m512 vm = _mm512_set1_ps(m);
  double sum = 0.0;
  i = 0;
  for (; i + 16 <= key_len; i += 16) {
    const __m512 e = exp512_ps(_mm512_sub_ps(_mm512_loadu_ps(lrow + i), vm));
    _mm512_storeu_ps(prow + i, e);
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
  const __m512 vinv = _mm512_set1_ps(inv);
  i = 0;
  for (; i + 16 <= key_len; i += 16) {
    _mm512_storeu_ps(prow + i, _mm512_mul_ps(_mm512_loadu_ps(prow + i), vinv));
  }
  for (; i < key_len; ++i) prow[i] *= inv;
  for (std::size_t j = 0; j < dh; ++j) ctx[j] *= inv;
}

void score_increments(const float* logits, const double* noise, double* out,
                      std::size_t n, double tau) {
  // The scalar variant's three passes, 16 entries a step: y and the max
  // in double lanes, (y - max) / tau narrowed to float for exp512_ps and
  // widened back, the sum and the 1/sum scale in double lanes. Tails take
  // the scalar expressions. A -inf y stays -inf through the narrowing, so
  // its exp lane is exactly 0.
  __m512d vmax = _mm512_set1_pd(-1e300);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512d y0 = _mm512_maskz_cvtps_pd(kAll8, _mm256_loadu_ps(logits + i));
    __m512d y1 = _mm512_maskz_cvtps_pd(kAll8, _mm256_loadu_ps(logits + i + 8));
    if (noise != nullptr) {
      y0 = _mm512_add_pd(y0, _mm512_loadu_pd(noise + i));
      y1 = _mm512_add_pd(y1, _mm512_loadu_pd(noise + i + 8));
    }
    _mm512_storeu_pd(out + i, y0);
    _mm512_storeu_pd(out + i + 8, y1);
    vmax = _mm512_maskz_max_pd(kAll8, vmax,
                               _mm512_maskz_max_pd(kAll8, y0, y1));
  }
  double max_y = hmax_pd(vmax);
  for (; i < n; ++i) {
    const double z = noise != nullptr ? noise[i] : 0.0;
    const double y = static_cast<double>(logits[i]) + z;
    out[i] = y;
    max_y = y > max_y ? y : max_y;
  }

  const __m512d vm = _mm512_set1_pd(max_y);
  const __m512d v_inv_tau = _mm512_set1_pd(1.0 / tau);
  __m512d vsum0 = _mm512_setzero_pd();
  __m512d vsum1 = _mm512_setzero_pd();
  i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(out + i), vm);
    const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(out + i + 8), vm);
    const __m256 t0 =
        _mm512_maskz_cvtpd_ps(kAll8, _mm512_mul_pd(d0, v_inv_tau));
    const __m256 t1 =
        _mm512_maskz_cvtpd_ps(kAll8, _mm512_mul_pd(d1, v_inv_tau));
    const __m512 e =
        exp512_ps(_mm512_insertf32x8(_mm512_castps256_ps512(t0), t1, 1));
    const __m512d e0 =
        _mm512_maskz_cvtps_pd(kAll8, _mm512_extractf32x8_ps(e, 0));
    const __m512d e1 =
        _mm512_maskz_cvtps_pd(kAll8, _mm512_extractf32x8_ps(e, 1));
    _mm512_storeu_pd(out + i, e0);
    _mm512_storeu_pd(out + i + 8, e1);
    vsum0 = _mm512_add_pd(vsum0, e0);
    vsum1 = _mm512_add_pd(vsum1, e1);
  }
  double sum = hsum_pd(_mm512_add_pd(vsum0, vsum1));
  for (; i < n; ++i) {
    out[i] = std::exp((out[i] - max_y) / tau);
    sum += out[i];
  }
  if (sum == 0.0) {
    for (i = 0; i < n; ++i) out[i] = 0.0;
    return;
  }
  const double inv = 1.0 / sum;
  const __m512d vinv = _mm512_set1_pd(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, _mm512_mul_pd(_mm512_loadu_pd(out + i), vinv));
  }
  for (; i < n; ++i) out[i] *= inv;
}

}  // namespace kf::cpu::avx512
