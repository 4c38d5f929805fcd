// The wide kernel variants, written once over a lane-width trait V.
// kernels_avx2.cpp (8 float lanes) and kernels_avx512.cpp (16) each define
// a trait and forward their six entry points to Wide<V>. Only those two
// TUs include this header, each compiled with its own -m flags, and
// everything here has internal linkage, so no code compiled for one ISA
// can be merged into the other's at link time.
//
// Numerics: dots/accumulations run V::kLanes float lanes with FMA;
// gemm_rows gives every output element one FMA per k step, in ascending
// k, whether it lands in a register block, a vector or a scalar std::fma;
// the attend's logits are dots whose kLanes-key groups reduce together
// (V::hsum_lanes pairs each key's lanes as V::hsum does, and dot's scalar
// tail follows), so grouping never changes a bit; decode_attend and
// attend_rows are one body, which holds each row's context in registers,
// up to kContextVectors accumulators across its rows at a time over every
// key, one FMA per key and element in key order, with the columns past
// the last whole vector in memory through the same multiply-add, so
// neither chunking nor the rows sharing a call changes a bit;
// exp runs a Cephes-style degree-5 polynomial (~1 ulp over the reduced
// range), and softmax sums accumulate in double lanes, keeping every
// variant within the 1e-5 parity budget against the scalar reference
// (pinned by test_simd_kernels). gemm_rows' GELU epilogue runs the same
// exp as v / (1 + exp(-2u)). Inputs below the exp underflow cutoff flush
// to exactly 0.0f — masked (-inf) logits must produce probability exactly
// 0, same as the scalar std::exp(-inf) path.
//
// The trait fixes what differs between ISAs beyond the lane count: the
// pairing and operand order of its horizontal reductions, and its exp
// underflow guard, which decides what a NaN lane becomes. Each ISA keeps
// its own bits.
//
// All loads/stores are unaligned (loadu/storeu): the 64-byte allocation
// alignment of KV arenas (core/aligned.h) makes segment *starts* cheap,
// but interior rows land wherever d_head puts them.
//
// A trait V provides, as static members:
//   F, D, kLanes       float lanes, double lanes of half as many, and
//                      the float lane count;
//   zero, zero_d, set1, load, store, add, sub, mul, div, fmadd, fnmadd,
//   max, min           lane ops (D overloads where the bodies need them);
//   first              lane 0 of an F;
//   hsum, hmax         horizontal sum and max of an F (in float) or a D;
//   hsum_lanes         lane k = hsum(p(k)) for the kLanes Fs p(0), p(1), ..;
//   round, pow2        exp's round-to-nearest, and 2^n for integral lanes;
//   zero_below         exp's underflow guard: p, zeroed where x < lowest;
//   widen              kLanes / 2 floats from memory, as a D;
//   widen_lo/widen_hi  the low/high half of an F, as a D;
//   narrow             two Ds rounded to float: the low, high half of an F.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

#include "cpu/kernels.h"

namespace kf::cpu {

namespace {

template <typename V>
struct Wide {
  using F = typename V::F;
  using D = typename V::D;
  static constexpr std::size_t kLanes = V::kLanes;

  /// Horizontal sum of the float lanes, in double (the callers accumulate
  /// sums in double; summing lanes pairwise in double keeps the order
  /// deterministic).
  static double hsum_d(F v) {
    return V::hsum(V::add(V::widen_lo(v), V::widen_hi(v)));
  }

  /// e^x per lane: Cephes-style range reduction (two-part ln 2) plus a
  /// degree-5 polynomial. Lanes below the underflow cutoff (about -87.3),
  /// including -inf, return exactly 0.0f; lanes above about 88.7 saturate.
  static F exp(F x) {
    const F k_log2e = V::set1(1.44269504088896341F);
    const F k_c1 = V::set1(0.693359375F);
    const F k_c2 = V::set1(-2.12194440e-4F);
    const F k_p0 = V::set1(1.9875691500e-4F);
    const F k_p1 = V::set1(1.3981999507e-3F);
    const F k_p2 = V::set1(8.3334519073e-3F);
    const F k_p3 = V::set1(4.1665795894e-2F);
    const F k_p4 = V::set1(1.6666665459e-1F);
    const F k_p5 = V::set1(5.0000001201e-1F);
    const F k_one = V::set1(1.0F);
    const F k_lowest = V::set1(-87.33654F);
    const F k_highest = V::set1(88.72283F);

    const F xc = V::min(x, k_highest);

    // n = round(x * log2 e); r = x - n*ln2 in two parts for accuracy.
    const F n = V::round(V::mul(xc, k_log2e));
    F r = V::fnmadd(n, k_c1, xc);
    r = V::fnmadd(n, k_c2, r);
    const F r2 = V::mul(r, r);

    F p = k_p0;
    p = V::fmadd(p, r, k_p1);
    p = V::fmadd(p, r, k_p2);
    p = V::fmadd(p, r, k_p3);
    p = V::fmadd(p, r, k_p4);
    p = V::fmadd(p, r, k_p5);
    p = V::fmadd(p, r2, V::add(r, k_one));

    // Scale by 2^n via exponent-bit construction. Underflow lanes (and
    // -inf, whose reduced form above is NaN) are forced to exactly zero.
    return V::zero_below(x, k_lowest, V::mul(p, V::pow2(n)));
  }

  /// GELU per lane as v / (1 + e^(-2u)), u = sqrt(2/pi) (v + 0.044715 v^3):
  /// the scalar variant's 0.5 v (1 + tanh u) with tanh written over exp.
  /// Far below zero e^(-2u) overflows to +inf and the lane is a signed 0.
  static F gelu(F v) {
    const F k_scale = V::set1(-2.0F * 0.7978845608028654F);
    const F k_cubic = V::set1(0.044715F);
    const F inner = V::fmadd(V::mul(k_cubic, V::mul(v, v)), v, v);
    const F e = exp(V::mul(k_scale, inner));
    return V::div(v, V::add(V::set1(1.0F), e));
  }

  /// Finishes the kLanes columns of C at `c`, columns j.. of its row, from
  /// their accumulators: `epilogue` with bias[j..] (see kernels.h), then a
  /// store.
  static void finish(F acc, float* c, Epilogue epilogue, const float* bias,
                     std::size_t j) {
    switch (epilogue) {
      case Epilogue::kStore:
        break;
      case Epilogue::kBiasGelu:
        acc = gelu(V::add(acc, V::load(bias + j)));
        break;
      case Epilogue::kBiasAccumulate:
        acc = V::add(V::load(c), V::add(acc, V::load(bias + j)));
        break;
    }
    V::store(c, acc);
  }

  /// finish for one column tail element (GELU through one broadcast
  /// vector).
  static void finish1(float acc, float* c, Epilogue epilogue,
                      const float* bias, std::size_t j) {
    switch (epilogue) {
      case Epilogue::kStore:
        *c = acc;
        break;
      case Epilogue::kBiasGelu:
        *c = V::first(gelu(V::set1(acc + bias[j])));
        break;
      case Epilogue::kBiasAccumulate:
        *c = *c + (acc + bias[j]);
        break;
    }
  }

  /// Columns [j0, j1) of the row y = x * B for the [k, n] matrix B: each
  /// y[j] starts at 0 and takes fma(x[kk], B[kk][j], y[j]) for kk
  /// ascending, then leaves through `epilogue`. Four vectors at a time
  /// accumulate in registers across k, then single vectors, then scalar
  /// std::fma columns. A gemm_rows row computed alone is this over [0, n).
  static void vecmat_cols(const float* x, const float* b, float* y,
                          std::size_t k, std::size_t n, std::size_t j0,
                          std::size_t j1, Epilogue epilogue,
                          const float* bias) {
    std::size_t j = j0;
    for (; j + 4 * kLanes <= j1; j += 4 * kLanes) {
      F y0 = V::zero();
      F y1 = V::zero();
      F y2 = V::zero();
      F y3 = V::zero();
      const float* bk = b + j;
      for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
        const F vx = V::set1(x[kk]);
        y0 = V::fmadd(vx, V::load(bk), y0);
        y1 = V::fmadd(vx, V::load(bk + kLanes), y1);
        y2 = V::fmadd(vx, V::load(bk + 2 * kLanes), y2);
        y3 = V::fmadd(vx, V::load(bk + 3 * kLanes), y3);
      }
      finish(y0, y + j, epilogue, bias, j);
      finish(y1, y + j + kLanes, epilogue, bias, j + kLanes);
      finish(y2, y + j + 2 * kLanes, epilogue, bias, j + 2 * kLanes);
      finish(y3, y + j + 3 * kLanes, epilogue, bias, j + 3 * kLanes);
    }
    for (; j + kLanes <= j1; j += kLanes) {
      F y0 = V::zero();
      const float* bk = b + j;
      for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
        y0 = V::fmadd(V::set1(x[kk]), V::load(bk), y0);
      }
      finish(y0, y + j, epilogue, bias, j);
    }
    for (; j < j1; ++j) {
      float acc = 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = std::fma(x[kk], b[kk * n + j], acc);
      }
      finish1(acc, y + j, epilogue, bias, j);
    }
  }

  static float dot(const float* a, const float* b, std::size_t n) {
    F acc0 = V::zero();
    F acc1 = V::zero();
    std::size_t i = 0;
    for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
      acc0 = V::fmadd(V::load(a + i), V::load(b + i), acc0);
      acc1 = V::fmadd(V::load(a + i + kLanes), V::load(b + i + kLanes), acc1);
    }
    for (; i + kLanes <= n; i += kLanes) {
      acc0 = V::fmadd(V::load(a + i), V::load(b + i), acc0);
    }
    const float acc = V::hsum(V::add(acc0, acc1));
    return i < n ? dot_tail(acc, a, b, i, n) : acc;
  }

  /// dot's scalar tail: acc plus a[i] * b[i] for i in [i, n), in order.
  /// One out-of-line body, so every caller's tail rounds alike.
  [[gnu::noinline]] static float dot_tail(float acc, const float* a,
                                          const float* b, std::size_t i,
                                          std::size_t n) {
    for (; i < n; ++i) acc += a[i] * b[i];
    return acc;
  }

  static float max_value(const float* x, std::size_t n) {
    float m = x[0];
    std::size_t i = 0;
    if (n >= kLanes) {
      F vm = V::load(x);
      for (i = kLanes; i + kLanes <= n; i += kLanes) {
        vm = V::max(vm, V::load(x + i));
      }
      m = V::hmax(vm);
    }
    for (; i < n; ++i) m = x[i] > m ? x[i] : m;
    return m;
  }

  static void matvec_rows(const float* a, const float* x, float* y,
                          std::size_t r0, std::size_t r1, std::size_t k) {
    for (std::size_t i = r0; i < r1; ++i) y[i] = dot(a + i * k, x, k);
  }

  static void gemm_rows(const float* a, const float* b, float* c,
                        std::size_t m0, std::size_t m1, std::size_t k,
                        std::size_t n, Epilogue epilogue, const float* bias) {
    // Register blocks of 4 rows x 2 vectors of columns (8 accumulators):
    // each pair of B vectors loaded per k step feeds four rows. Column
    // strips are the outer loop, so a strip of B is reused by every row
    // block while it is still cached. Column tails and leftover rows go
    // through vecmat_cols. Every path gives an element the same FMA chain
    // over ascending k from 0 and the same epilogue, so a row's bits equal
    // the row computed alone.
    constexpr std::size_t kRows = 4;
    constexpr std::size_t kCols = 2 * kLanes;
    const std::size_t n_block = n - n % kCols;
    const std::size_t m_block = m0 + (m1 - m0) / kRows * kRows;
    for (std::size_t j = 0; j < n_block; j += kCols) {
      for (std::size_t i = m0; i < m_block; i += kRows) {
        const float* a0 = a + i * k;
        const float* a1 = a0 + k;
        const float* a2 = a1 + k;
        const float* a3 = a2 + k;
        F c00 = V::zero();
        F c01 = V::zero();
        F c10 = V::zero();
        F c11 = V::zero();
        F c20 = V::zero();
        F c21 = V::zero();
        F c30 = V::zero();
        F c31 = V::zero();
        const float* bk = b + j;
        for (std::size_t kk = 0; kk < k; ++kk, bk += n) {
          const F b0 = V::load(bk);
          const F b1 = V::load(bk + kLanes);
          F x = V::set1(a0[kk]);
          c00 = V::fmadd(x, b0, c00);
          c01 = V::fmadd(x, b1, c01);
          x = V::set1(a1[kk]);
          c10 = V::fmadd(x, b0, c10);
          c11 = V::fmadd(x, b1, c11);
          x = V::set1(a2[kk]);
          c20 = V::fmadd(x, b0, c20);
          c21 = V::fmadd(x, b1, c21);
          x = V::set1(a3[kk]);
          c30 = V::fmadd(x, b0, c30);
          c31 = V::fmadd(x, b1, c31);
        }
        // The block leaves through memory, one row at a time. Finishing it
        // straight from registers keeps seven accumulators live across each
        // GELU; with AVX2's 16 registers GCC then spills one inside the k
        // loop above, which runs about half as fast.
        const F tile[2 * kRows] = {c00, c01, c10, c11, c20, c21, c30, c31};
        for (std::size_t r = 0; r < kRows; ++r) {
          float* cr = c + (i + r) * n + j;
          finish(tile[2 * r], cr, epilogue, bias, j);
          finish(tile[2 * r + 1], cr + kLanes, epilogue, bias, j + kLanes);
        }
      }
    }
    for (std::size_t i = m0; i < m_block; ++i) {
      vecmat_cols(a + i * k, b, c + i * n, k, n, n_block, n, epilogue, bias);
    }
    for (std::size_t i = m_block; i < m1; ++i) {
      vecmat_cols(a + i * k, b, c + i * n, k, n, 0, n, epilogue, bias);
    }
  }

  static void softmax(const float* x, float* out, std::size_t n, double tau) {
    const float m = max_value(x, n);
    if (m == -std::numeric_limits<float>::infinity()) {
      for (std::size_t i = 0; i < n; ++i) out[i] = 0.0F;
      return;
    }
    const F vm = V::set1(m);
    const F v_inv_tau = V::set1(static_cast<float>(1.0 / tau));
    const bool unit_tau = tau == 1.0;
    double sum = 0.0;
    std::size_t i = 0;
    // x is read before out is written at every index, so out == x aliasing
    // (softmax in place) is fine.
    for (; i + kLanes <= n; i += kLanes) {
      F t = V::sub(V::load(x + i), vm);
      if (!unit_tau) t = V::mul(t, v_inv_tau);
      const F e = exp(t);
      V::store(out + i, e);
      sum += hsum_d(e);
    }
    for (; i < n; ++i) {
      const double e = std::exp(static_cast<double>(x[i] - m) / tau);
      out[i] = static_cast<float>(e);
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    const F vinv = V::set1(inv);
    i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      V::store(out + i, V::mul(V::load(out + i), vinv));
    }
    for (; i < n; ++i) out[i] *= inv;
  }

  /// One attend_rows call (kernels.h has the contract): n_rows consecutive
  /// query rows of one head, row r seeing the keys [0, key_len + r).
  struct Rows {
    const KvSegmentView* segs;
    std::size_t n_segs;
    const float* q;
    std::size_t dh;
    float scale;
    const float* bias;
    const float* keys_override;
    float* lrow;
    float* prow;
    std::size_t row_stride;
    float* ctx;
    std::size_t ctx_stride;
    std::size_t key_len;
    std::size_t n_rows;
  };

  /// A key row's dot partials against q over the first nv whole vectors,
  /// formed as dot forms them: acc0 and acc1 over pairs of vectors, an odd
  /// last vector into acc0, then their sum. hsum of it plus dot's scalar
  /// tail is dot(k, q, dh). NV > 0 fixes nv, so the body runs straight-line.
  template <std::size_t NV>
  static F dot_partial(const float* k, const float* q, std::size_t nv) {
    if constexpr (NV > 0) nv = NV;
    F acc0 = V::zero();
    F acc1 = V::zero();
    std::size_t c = 0;
    for (; c + 2 <= nv; c += 2) {
      acc0 = V::fmadd(V::load(k + c * kLanes), V::load(q + c * kLanes), acc0);
      acc1 = V::fmadd(V::load(k + (c + 1) * kLanes),
                      V::load(q + (c + 1) * kLanes), acc1);
    }
    if (c < nv) {
      acc0 = V::fmadd(V::load(k + c * kLanes), V::load(q + c * kLanes), acc0);
    }
    return V::add(acc0, acc1);
  }

  /// The whole vectors' part of dot(key(j), q, nv * kLanes) into out[j]
  /// for the kLanes key rows of one group, their partials reduced
  /// together. Out of line, so the caller's walk over the segments keeps
  /// its registers.
  template <std::size_t NV, typename Key>
  [[gnu::noinline]] static void group_dots(Key key, const float* q,
                                           std::size_t nv, float* out) {
    V::store(out, V::hsum_lanes([&](std::size_t j) {
      return dot_partial<NV>(key(j), q, nv);
    }));
  }

  /// dot(K_i, q_r) into row r's logits for every key i < key_len + r. Keys
  /// go in groups of kLanes in key order, across segment boundaries; each
  /// row that sees a whole group reduces the group's partials together
  /// (V::hsum_lanes, hsum's pairing), then adds each key's scalar tail,
  /// while the group's K rows are in L1. Keys a row sees outside a whole
  /// group take dot. Either way a logit has dot's bits.
  template <std::size_t NV>
  static void key_dots(const Rows& a) {
    const std::size_t dh = a.dh;
    const std::size_t nv = dh / kLanes;
    const std::size_t tail = nv * kLanes;  // dot's scalar tail starts here
    std::size_t g = 0;                     // the next group's first key
    // Row r's logits for the keys of [g, g + n) it sees, one dot each.
    const auto one_by_one = [&](auto key, std::size_t r, std::size_t n) {
      const float* q = a.q + r * dh;
      float* out = a.lrow + r * a.row_stride;
      for (std::size_t i = g; i < std::min(g + n, a.key_len + r); ++i) {
        out[i] = dot(key(i - g), q, dh);
      }
    };
    // Rows from r_full on see the whole group [g, g + kLanes).
    const auto group = [&](auto key) {
      const std::size_t r_full =
          std::min(a.n_rows, g + kLanes > a.key_len ? g + kLanes - a.key_len
                                                    : std::size_t{0});
      for (std::size_t r = 0; r < r_full; ++r) one_by_one(key, r, kLanes);
      for (std::size_t r = r_full; r < a.n_rows; ++r) {
        const float* q = a.q + r * dh;
        float* out = a.lrow + r * a.row_stride + g;
        group_dots<NV>(key, q, nv, out);
        for (std::size_t j = 0; tail < dh && j < kLanes; ++j) {
          out[j] = dot_tail(out[j], key(j), q, tail, dh);
        }
      }
      g += kLanes;
    };
    // A group that spans segments collects its key rows here.
    const float* kp[kLanes];
    const auto held_key = [&kp](std::size_t j) { return kp[j]; };
    std::size_t held = 0;
    for (std::size_t s = 0; s < a.n_segs; ++s) {
      const KvSegmentView& seg = a.segs[s];
      const float* k = a.keys_override != nullptr
                           ? a.keys_override + seg.first * dh
                           : seg.keys;
      for (std::size_t left = seg.count; left > 0;) {
        // A whole group inside the segment goes by stride: sending every
        // group through kp ran BM_DecodeAttend 10-50% slower.
        if (held == 0 && left >= kLanes) {
          group([k, dh](std::size_t j) { return k + j * dh; });
          k += kLanes * dh;
          left -= kLanes;
          continue;
        }
        kp[held++] = k;
        k += dh;
        --left;
        if (held == kLanes) {
          group(held_key);
          held = 0;
        }
      }
    }
    for (std::size_t r = 0; r < a.n_rows; ++r) one_by_one(held_key, r, held);
  }

  /// One row's logits scaled (and biased) in place, then e_i = exp(l_i -
  /// max) into prow; returns the sum of the e_i, in double. The caller
  /// passes only the keys the row sees, so no -inf reaches here.
  static double exp_row(float* lrow, float* prow, const float* bias,
                        float scale, std::size_t n) {
    const F vscale = V::set1(scale);
    std::size_t i = 0;
    if (bias != nullptr) {
      for (; i + kLanes <= n; i += kLanes) {
        V::store(lrow + i,
                 V::fmadd(V::load(lrow + i), vscale, V::load(bias + i)));
      }
      for (; i < n; ++i) lrow[i] = lrow[i] * scale + bias[i];
    } else {
      for (; i + kLanes <= n; i += kLanes) {
        V::store(lrow + i, V::mul(V::load(lrow + i), vscale));
      }
      for (; i < n; ++i) lrow[i] *= scale;
    }
    const float m = max_value(lrow, n);
    const F vm = V::set1(m);
    double sum = 0.0;
    i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const F e = exp(V::sub(V::load(lrow + i), vm));
      V::store(prow + i, e);
      sum += hsum_d(e);
    }
    for (; i < n; ++i) {
      const double e = std::exp(static_cast<double>(lrow[i] - m));
      prow[i] = static_cast<float>(e);
      sum += e;
    }
    return sum;
  }

  /// The R rows' contexts over the vector columns [j, j + N * kLanes): R x
  /// N accumulators stay in registers while each key's V row, segments then
  /// rows, is loaded once and added into every row that sees it, p_i * V_i
  /// with one FMA per element, from 0; then each is scaled by its row's
  /// 1/sum and stored once, so no key waits on the previous key's store.
  template <std::size_t R, std::size_t N>
  static void context_columns(const Rows& a, const float* inv,
                              std::size_t j) {
    const std::size_t dh = a.dh;
    const std::size_t key_len = a.key_len;
    const float* p[R];
    for (std::size_t r = 0; r < R; ++r) p[r] = a.prow + r * a.row_stride;
    F acc[R][N];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < N; ++c) acc[r][c] = V::zero();
    }
    // The V rows of keys key_len + e, e < R - 1, which only rows r > e see.
    const float* extra[R];
    for (std::size_t s = 0; s < a.n_segs; ++s) {
      const KvSegmentView& seg = a.segs[s];
      const std::size_t end = seg.first + seg.count;
      const float* v = seg.values + j;
      std::size_t i = seg.first;
      for (const std::size_t common = std::min(end, key_len); i < common;
           ++i, v += dh) {
        F vv[N];
        for (std::size_t c = 0; c < N; ++c) vv[c] = V::load(v + c * kLanes);
        for (std::size_t r = 0; r < R; ++r) {
          const F vp = V::set1(p[r][i]);
          for (std::size_t c = 0; c < N; ++c) {
            acc[r][c] = V::fmadd(vp, vv[c], acc[r][c]);
          }
        }
      }
      for (; i < end; ++i, v += dh) extra[i - key_len] = v;
    }
    // They come after every common key, so each row's chain stays in key
    // order.
    for (std::size_t e = 0; e + 1 < R; ++e) {
      for (std::size_t r = e + 1; r < R; ++r) {
        const F vp = V::set1(p[r][key_len + e]);
        for (std::size_t c = 0; c < N; ++c) {
          acc[r][c] = V::fmadd(vp, V::load(extra[e] + c * kLanes), acc[r][c]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      const F vinv = V::set1(inv[r]);
      for (std::size_t c = 0; c < N; ++c) {
        V::store(a.ctx + r * a.ctx_stride + j + c * kLanes,
                 V::mul(acc[r][c], vinv));
      }
    }
  }

  /// Accumulators per context pass: 8, with the V row and the broadcast
  /// p_i, fit AVX2's 16 registers without a spill.
  static constexpr std::size_t kContextVectors = 8;

  /// The whole vectors of the R rows' contexts from column j on: chunks of
  /// N vectors, then what is left in chunks of N / 2, N / 4, .., 1 (each
  /// at most once). Returns the first column past them, where the scalar
  /// tail starts.
  template <std::size_t R, std::size_t N = std::bit_floor(kContextVectors / R)>
  static std::size_t context_chunks(const Rows& a, const float* inv,
                                    std::size_t j) {
    for (; j + N * kLanes <= a.dh; j += N * kLanes) {
      context_columns<R, N>(a, inv, j);
    }
    if constexpr (N > 1) {
      return context_chunks<R, N / 2>(a, inv, j);
    }
    return j;
  }

  /// Row r's context columns [j, dh) past the last whole vector, in
  /// memory, one multiply-add per key it sees in key order.
  static void context_tail(const Rows& a, std::size_t r, float inv,
                           std::size_t j) {
    const std::size_t dh = a.dh;
    const std::size_t n = a.key_len + r;
    const float* prow = a.prow + r * a.row_stride;
    float* ctx = a.ctx + r * a.ctx_stride;
    for (std::size_t t = j; t < dh; ++t) ctx[t] = 0.0F;
    for (std::size_t s = 0; s < a.n_segs && a.segs[s].first < n; ++s) {
      const KvSegmentView& seg = a.segs[s];
      const std::size_t count = std::min(seg.count, n - seg.first);
      for (std::size_t i = 0; i < count; ++i) {
        const float p = prow[seg.first + i];
        const float* v = seg.values + i * dh;
        for (std::size_t t = j; t < dh; ++t) ctx[t] += p * v[t];
      }
    }
    for (std::size_t t = j; t < dh; ++t) ctx[t] *= inv;
  }

  /// The fused attend of one head's n_rows <= kAttendRows consecutive query
  /// rows. Per row: the logits, then the unnormalized softmax; then every
  /// row's context sum p_i * V_i in register-held column chunks; one 1/sum
  /// per row normalizes its probabilities and context together. Each row
  /// keeps the one-row arithmetic, so its bits are decode_attend's over
  /// its own keys.
  static void attend_rows(const Rows& a) {
    switch (a.dh / kLanes) {
      case 1: key_dots<1>(a); break;
      case 2: key_dots<2>(a); break;
      case 4: key_dots<4>(a); break;
      default: key_dots<0>(a); break;
    }
    float inv[kAttendRows];
    for (std::size_t r = 0; r < a.n_rows; ++r) {
      const std::size_t o = r * a.row_stride;
      const double sum =
          exp_row(a.lrow + o, a.prow + o,
                  a.bias != nullptr ? a.bias + o : nullptr, a.scale,
                  a.key_len + r);
      inv[r] = static_cast<float>(1.0 / sum);
    }
    std::size_t tail = 0;
    switch (a.n_rows) {
      case 1: tail = context_chunks<1>(a, inv, 0); break;
      case 2: tail = context_chunks<2>(a, inv, 0); break;
      case 3: tail = context_chunks<3>(a, inv, 0); break;
      default: tail = context_chunks<4>(a, inv, 0); break;
    }
    for (std::size_t r = 0; r < a.n_rows; ++r) {
      if (tail < a.dh) context_tail(a, r, inv[r], tail);
      float* prow = a.prow + r * a.row_stride;
      const std::size_t n = a.key_len + r;
      const F vinv = V::set1(inv[r]);
      std::size_t i = 0;
      for (; i + kLanes <= n; i += kLanes) {
        V::store(prow + i, V::mul(V::load(prow + i), vinv));
      }
      for (; i < n; ++i) prow[i] *= inv[r];
    }
  }

  static void decode_attend(const KvSegmentView* segs, std::size_t n_segs,
                            const float* q_head, std::size_t dh, float scale,
                            const float* bias, const float* keys_override,
                            float* lrow, float* prow, float* ctx,
                            std::size_t key_len) {
    attend_rows({segs, n_segs, q_head, dh, scale, bias, keys_override, lrow,
                 prow, key_len, ctx, dh, key_len, 1});
  }

  static void score_increments(const float* logits, const double* noise,
                               double* out, std::size_t n, double tau) {
    // The scalar variant's three passes, kLanes entries a step: y and the
    // max in double lanes, (y - max) / tau narrowed to float for exp and
    // widened back, the sum and the 1/sum scale in double lanes. Tails take
    // the scalar expressions. A -inf y stays -inf through the narrowing, so
    // its exp lane is exactly 0.
    constexpr std::size_t kHalf = kLanes / 2;
    D vmax = V::set1(-1e300);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      D y0 = V::widen(logits + i);
      D y1 = V::widen(logits + i + kHalf);
      if (noise != nullptr) {
        y0 = V::add(y0, V::load(noise + i));
        y1 = V::add(y1, V::load(noise + i + kHalf));
      }
      V::store(out + i, y0);
      V::store(out + i + kHalf, y1);
      vmax = V::max(vmax, V::max(y0, y1));
    }
    double max_y = V::hmax(vmax);
    for (; i < n; ++i) {
      const double z = noise != nullptr ? noise[i] : 0.0;
      const double y = static_cast<double>(logits[i]) + z;
      out[i] = y;
      max_y = y > max_y ? y : max_y;
    }

    const D vm = V::set1(max_y);
    const D v_inv_tau = V::set1(1.0 / tau);
    D vsum0 = V::zero_d();
    D vsum1 = V::zero_d();
    i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const D d0 = V::sub(V::load(out + i), vm);
      const D d1 = V::sub(V::load(out + i + kHalf), vm);
      const F e =
          exp(V::narrow(V::mul(d0, v_inv_tau), V::mul(d1, v_inv_tau)));
      const D e0 = V::widen_lo(e);
      const D e1 = V::widen_hi(e);
      V::store(out + i, e0);
      V::store(out + i + kHalf, e1);
      vsum0 = V::add(vsum0, e0);
      vsum1 = V::add(vsum1, e1);
    }
    double sum = V::hsum(V::add(vsum0, vsum1));
    for (; i < n; ++i) {
      out[i] = std::exp((out[i] - max_y) / tau);
      sum += out[i];
    }
    if (sum == 0.0) {
      for (i = 0; i < n; ++i) out[i] = 0.0;
      return;
    }
    const double inv = 1.0 / sum;
    const D vinv = V::set1(inv);
    i = 0;
    for (; i + kHalf <= n; i += kHalf) {
      V::store(out + i, V::mul(V::load(out + i), vinv));
    }
    for (; i < n; ++i) out[i] *= inv;
  }
};

}  // namespace

}  // namespace kf::cpu
