// AVX-512 (F/BW/DQ/VL + FMA) kernel variants: the 16-lane instantiation of
// kernels_wide.h, whose header notes the numerics. This TU (alone) is
// compiled with -mavx512* flags and is only reached through the dispatch
// tables on hosts that support it.

#include <immintrin.h>

#include "cpu/kernels_wide.h"
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

/// Wide's lane ops over __m512 (16 floats) and __m512d (8 doubles).
struct Avx512 {
  using F = __m512;
  using D = __m512d;
  static constexpr std::size_t kLanes = 16;

  static F zero() { return _mm512_setzero_ps(); }
  static D zero_d() { return _mm512_setzero_pd(); }
  static F set1(float v) { return _mm512_set1_ps(v); }
  static D set1(double v) { return _mm512_set1_pd(v); }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static D add(D a, D b) { return _mm512_add_pd(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static F div(F a, F b) { return _mm512_div_ps(a, b); }
  static F fmadd(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F fnmadd(F a, F b, F c) { return _mm512_fnmadd_ps(a, b, c); }
  static F max(F a, F b) { return _mm512_maskz_max_ps(kAll16, a, b); }
  static D max(D a, D b) { return _mm512_maskz_max_pd(kAll8, a, b); }
  static F min(F a, F b) { return _mm512_maskz_min_ps(kAll16, a, b); }
  static float first(F v) { return _mm512_cvtss_f32(v); }

  // The reductions pair lanes as _mm512_reduce_add_* / _mm512_reduce_max_*
  // do (lane i with i + 8, then i + 4, ...), in their operand order: the
  // high half first, which max returns on ties and NaNs.
  static float hsum(F v) {
    const __m256 s = _mm256_add_ps(_mm512_extractf32x8_ps(v, 1),
                                   _mm512_extractf32x8_ps(v, 0));
    const __m128 s2 =
        _mm_add_ps(_mm256_extractf128_ps(s, 1), _mm256_castps256_ps128(s));
    const __m128 s3 = _mm_add_ps(s2, _mm_movehl_ps(s2, s2));
    return _mm_cvtss_f32(_mm_add_ss(s3, _mm_shuffle_ps(s3, s3, 1)));
  }
  static double hsum(D v) {
    const __m256d s = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(kAll8, v, 1),
                                    _mm512_maskz_extractf64x4_pd(kAll8, v, 0));
    const __m128d s2 =
        _mm_add_pd(_mm256_extractf128_pd(s, 1), _mm256_castpd256_pd128(s));
    return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
  }
  /// Lane k holds hsum(p(k)) for k < 16: a transpose-and-add tree that
  /// adds each key's lanes in hsum's pairs and operand order, two keys per
  /// vector at the first level, four at the second, eight, then sixteen.
  /// Input slot s of the tree carries key 4 (s % 4) + s / 4, which lands
  /// key k in lane k.
  template <typename P>
  static F hsum_lanes(P&& p) {
    // i with i + 8 (high half first): [a.lo + a.hi | b.lo + b.hi].
    const auto pair8 = [](F a, F b) {
      return _mm512_add_ps(
          _mm512_maskz_shuffle_f32x4(kAll16, a, b, _MM_SHUFFLE(3, 2, 3, 2)),
          _mm512_maskz_shuffle_f32x4(kAll16, a, b, _MM_SHUFFLE(1, 0, 1, 0)));
    };
    // i with i + 4 in each 256-bit half (high quarter first).
    const auto pair4 = [](F a, F b) {
      return _mm512_add_ps(
          _mm512_maskz_shuffle_f32x4(kAll16, a, b, _MM_SHUFFLE(3, 1, 3, 1)),
          _mm512_maskz_shuffle_f32x4(kAll16, a, b, _MM_SHUFFLE(2, 0, 2, 0)));
    };
    // i with i + 2, then i with i + 1, in each 128-bit lane (low first).
    const auto pair2 = [](F a, F b) {
      return _mm512_add_ps(
          _mm512_maskz_shuffle_ps(kAll16, a, b, _MM_SHUFFLE(1, 0, 1, 0)),
          _mm512_maskz_shuffle_ps(kAll16, a, b, _MM_SHUFFLE(3, 2, 3, 2)));
    };
    const auto pair1 = [](F a, F b) {
      return _mm512_add_ps(
          _mm512_maskz_shuffle_ps(kAll16, a, b, _MM_SHUFFLE(2, 0, 2, 0)),
          _mm512_maskz_shuffle_ps(kAll16, a, b, _MM_SHUFFLE(3, 1, 3, 1)));
    };
    const F w0 = pair8(p(0), p(4));
    const F w1 = pair8(p(8), p(12));
    const F w2 = pair8(p(1), p(5));
    const F w3 = pair8(p(9), p(13));
    const F w4 = pair8(p(2), p(6));
    const F w5 = pair8(p(10), p(14));
    const F w6 = pair8(p(3), p(7));
    const F w7 = pair8(p(11), p(15));
    return pair1(pair2(pair4(w0, w1), pair4(w2, w3)),
                 pair2(pair4(w4, w5), pair4(w6, w7)));
  }
  static float hmax(F v) {
    const __m256 m = _mm256_max_ps(_mm512_extractf32x8_ps(v, 1),
                                   _mm512_extractf32x8_ps(v, 0));
    const __m128 m2 =
        _mm_max_ps(_mm256_extractf128_ps(m, 1), _mm256_castps256_ps128(m));
    const __m128 m3 = _mm_max_ps(m2, _mm_movehl_ps(m2, m2));
    return _mm_cvtss_f32(_mm_max_ss(m3, _mm_shuffle_ps(m3, m3, 1)));
  }
  static double hmax(D v) {
    const __m256d m = _mm256_max_pd(_mm512_maskz_extractf64x4_pd(kAll8, v, 1),
                                    _mm512_maskz_extractf64x4_pd(kAll8, v, 0));
    const __m128d m2 =
        _mm_max_pd(_mm256_extractf128_pd(m, 1), _mm256_castpd256_pd128(m));
    return _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
  }

  static F round(F v) {
    return _mm512_maskz_roundscale_ps(
        kAll16, v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static F pow2(F n) {
    const __m512i biased = _mm512_add_epi32(
        _mm512_maskz_cvtps_epi32(kAll16, n), _mm512_set1_epi32(127));
    return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(kAll16, biased, 23));
  }
  /// Keeps the lanes where x >= lowest is true: a NaN x's lane is zeroed.
  static F zero_below(F x, F lowest, F p) {
    return _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(x, lowest, _CMP_GE_OQ), p);
  }

  static D widen(const float* p) {
    return _mm512_maskz_cvtps_pd(kAll8, _mm256_loadu_ps(p));
  }
  static D widen_lo(F v) {
    return _mm512_maskz_cvtps_pd(kAll8, _mm512_extractf32x8_ps(v, 0));
  }
  static D widen_hi(F v) {
    return _mm512_maskz_cvtps_pd(kAll8, _mm512_extractf32x8_ps(v, 1));
  }
  static F narrow(D lo, D hi) {
    return _mm512_insertf32x8(
        _mm512_castps256_ps512(_mm512_maskz_cvtpd_ps(kAll8, lo)),
        _mm512_maskz_cvtpd_ps(kAll8, hi), 1);
  }
};

using K = Wide<Avx512>;

}  // namespace

void matvec_rows(const float* a, const float* x, float* y, std::size_t r0,
                 std::size_t r1, std::size_t k) {
  K::matvec_rows(a, x, y, r0, r1, k);
}

void gemm_rows(const float* a, const float* b, float* c, std::size_t m0,
               std::size_t m1, std::size_t k, std::size_t n,
               Epilogue epilogue, const float* bias) {
  K::gemm_rows(a, b, c, m0, m1, k, n, epilogue, bias);
}

void softmax(const float* x, float* out, std::size_t n, double tau) {
  K::softmax(x, out, n, tau);
}

void decode_attend(const KvSegmentView* segs, std::size_t n_segs,
                   const float* q_head, std::size_t dh, float scale,
                   const float* bias, const float* keys_override, float* lrow,
                   float* prow, float* ctx, std::size_t key_len) {
  K::decode_attend(segs, n_segs, q_head, dh, scale, bias, keys_override, lrow,
                   prow, ctx, key_len);
}

void attend_rows(const KvSegmentView* segs, std::size_t n_segs,
                 const float* q, std::size_t dh, float scale, const float* bias,
                 const float* keys_override, float* lrow, float* prow,
                 std::size_t row_stride, float* ctx, std::size_t ctx_stride,
                 std::size_t key_len, std::size_t n_rows) {
  K::attend_rows({segs, n_segs, q, dh, scale, bias, keys_override, lrow, prow,
                  row_stride, ctx, ctx_stride, key_len, n_rows});
}

void score_increments(const float* logits, const double* noise, double* out,
                      std::size_t n, double tau) {
  K::score_increments(logits, noise, out, n, tau);
}

}  // namespace kf::cpu::avx512
