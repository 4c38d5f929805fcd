// AVX2 + FMA kernel variants: the 8-lane instantiation of kernels_wide.h,
// whose header notes the numerics. This TU (alone) is compiled with
// -mavx2 -mfma; it is only ever reached through the dispatch tables, and
// only on hosts where cpu_isa.cpp detected AVX2 support.

#include <immintrin.h>

#include "cpu/kernels_wide.h"
#include "cpu/variants.h"

namespace kf::cpu::avx2 {

namespace {

/// Wide's lane ops over __m256 (8 floats) and __m256d (4 doubles).
struct Avx2 {
  using F = __m256;
  using D = __m256d;
  static constexpr std::size_t kLanes = 8;

  static F zero() { return _mm256_setzero_ps(); }
  static D zero_d() { return _mm256_setzero_pd(); }
  static F set1(float v) { return _mm256_set1_ps(v); }
  static D set1(double v) { return _mm256_set1_pd(v); }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static F div(F a, F b) { return _mm256_div_ps(a, b); }
  static F fmadd(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F fnmadd(F a, F b, F c) { return _mm256_fnmadd_ps(a, b, c); }
  static F max(F a, F b) { return _mm256_max_ps(a, b); }
  static D max(D a, D b) { return _mm256_max_pd(a, b); }
  static F min(F a, F b) { return _mm256_min_ps(a, b); }
  static float first(F v) { return _mm256_cvtss_f32(v); }

  // The reductions pair lane i with i + half the lanes, halving down to
  // lane 0 with 1, with the low half as the first operand.
  static float hsum(F v) {
    const __m128 s =
        _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    const __m128 s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
    return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
  }
  static double hsum(D v) {
    const __m128d s =
        _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
  /// Lane k holds hsum(p(k)) for k < 8: a transpose-and-add tree that adds
  /// each key's lanes in hsum's pairs and operand order, two keys per
  /// vector at the first level, four, then eight. Input slot s of the tree
  /// carries key 4 (s % 2) + s / 2, which lands key k in lane k.
  template <typename P>
  static F hsum_lanes(P&& p) {
    // i with i + 4: [a.lo + a.hi | b.lo + b.hi].
    const auto pair4 = [](F a, F b) {
      return _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                           _mm256_permute2f128_ps(a, b, 0x31));
    };
    // i with i + 2, then i with i + 1, in each 128-bit lane.
    const auto pair2 = [](F a, F b) {
      return _mm256_add_ps(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(1, 0, 1, 0)),
                           _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 2, 3, 2)));
    };
    const auto pair1 = [](F a, F b) {
      return _mm256_add_ps(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                           _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
    };
    const F w0 = pair4(p(0), p(4));
    const F w1 = pair4(p(1), p(5));
    const F w2 = pair4(p(2), p(6));
    const F w3 = pair4(p(3), p(7));
    return pair1(pair2(w0, w1), pair2(w2, w3));
  }
  static float hmax(F v) {
    const __m128 m =
        _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    const __m128 m2 = _mm_max_ps(m, _mm_movehl_ps(m, m));
    return _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1)));
  }
  static double hmax(D v) {
    const __m128d m =
        _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
  }

  static F round(F v) {
    return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static F pow2(F n) {
    const __m256i biased =
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
    return _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
  }
  /// Zeroes the lanes where x < lowest is true: a NaN x keeps its lane.
  static F zero_below(F x, F lowest, F p) {
    return _mm256_andnot_ps(_mm256_cmp_ps(x, lowest, _CMP_LT_OQ), p);
  }

  static D widen(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  static D widen_lo(F v) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  }
  static D widen_hi(F v) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  static F narrow(D lo, D hi) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                                _mm256_cvtpd_ps(hi), 1);
  }
};

using K = Wide<Avx2>;

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

}  // namespace kf::cpu::avx2
