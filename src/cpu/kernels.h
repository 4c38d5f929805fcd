// Dispatch tables for the hot kernels: the dense-layer GEMM behind every
// projection, MLP and the LM head, the row matvec, the fused attend of up
// to kAttendRows consecutive query rows of one head (attend_rows, which
// serves prompt and decode rows alike) and its one-row form
// (decode_attend), Keyformer's score increments, and the standalone
// softmax.
//
// Each kernel is a DispatchStub-style table: one function-pointer slot
// per CpuIsa, filled at static-init time with the widest variant compiled
// in (narrower slots fall back to the next variant down, so every slot is
// callable on any host that can select it). A call resolves the active
// ISA (one relaxed atomic load, see cpu_isa.h) and jumps through the
// table — the portable wrappers in core/tensor.h, core/numerics.h and the
// attend in model/attention.cpp all route through here.
//
// Variant TUs (kernels_scalar.cpp / kernels_avx2.cpp / kernels_avx512.cpp)
// are compiled with per-file flags and must only be reached through these
// tables (scripts/lint.py check 6 enforces it); nothing outside src/cpu
// names a variant namespace. The AVX2 and AVX-512 TUs instantiate one set
// of kernel bodies, kernels_wide.h's Wide<V>, with their lane-width traits.
//
// Contracts shared by every variant. The scalar variant is the semantics
// reference: the pre-dispatch kernel code moved verbatim, so under
// KF_CPU_ISA=scalar each kernel call is bit-identical to the historical
// scalar build's. That holds per call, not per run: every row attends as
// the decode_attend call over its causal prefix, so under every ISA a
// prompt row is bit-identical to its token decoded alone, not to the
// historical build's prompt rows.
//   - gemm_rows: every C[i][j] accumulates from 0 in ascending k, one
//     multiply-add per step (fused on the wide variants). Under a given
//     ISA a row's bits never depend on which other rows share the call,
//     how rows are grouped into register blocks, or how [m0, m1) is split
//     across threads — so a decode row is bit-identical whatever else is
//     in its batch, and chunked prefill is row-exact.
//   - gemm_rows epilogue: each finished element acc = (A·B)[i][j] leaves
//     through one of three forms. kStore writes acc; kBiasGelu writes
//     gelu(acc + bias[j]); kBiasAccumulate writes C[i][j] + (acc +
//     bias[j]). The scalar variant evaluates these per element in that
//     order, GELU as 0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³))) with
//     std::tanh, so each scalar call is bit-identical to the unfused
//     loops: the product, then a bias add, then the GELU, then a residual
//     add. The wide variants apply the form to each finished register
//     tile and compute GELU as v / (1 + exp(−2u)), u = √(2/π)·(v +
//     0.044715·v³), over Wide<V>::exp: within 1e-6·(1 + |ref|) of the
//     scalar GELU `ref` of the same v. The epilogue is per
//     element, so the row-bits contract holds for every form.
//   - softmax: tau == 1.0 is the plain softmax; an all-(-inf) input row
//     produces an all-zero output (no NaN), and any individually -inf
//     entry produces an exactly-0.0f probability. in == out aliasing is
//     allowed.
//   - decode_attend: one query head against `count`-row head-major
//     [count, dh] K/V segment streams; logits are pre-scaled/biased by
//     the caller-provided scale and optional bias row, then one fused
//     pass does stable softmax + weighted-V accumulation. The caller
//     passes only the keys a row may see: a decode row the whole cache,
//     a prompt row the segments clipped to its causal prefix, so no
//     variant handles masking. A row's bits depend only on its query,
//     scale, bias and visible K/V rows, never on how they are segmented.
//     Each logit is matvec_rows' dot of its key row and the query. The
//     wide variants form the dot partials of kLanes keys at a time, in key
//     order across segment boundaries, and reduce them together in one
//     transpose-and-add tree that pairs lanes as the trait's horizontal
//     sum does, so each logit keeps the bits of its own dot.
//     Each context element starts at 0 and takes one multiply-add of
//     p_i * V_i per key in key order (segments, then rows; fused on the
//     wide variants), then one multiply by 1/sum. The wide variants keep
//     a chunk of context columns in registers across all keys and store
//     it once, so no key waits on the previous key's store; the chunking
//     does not change an element's chain, so its bits are those of a
//     row-at-a-time accumulation in memory.
//   - attend_rows: n_rows consecutive query rows of one head, row r the
//     decode_attend call over the first key_len + r keys. Each row's
//     outputs are bit-identical to that call's. The wide variants reduce
//     each group of kLanes key rows for every row that sees it while the
//     group stays in L1, and load each V row once per call, adding it
//     into every row's register-held context; the scalar variant makes
//     the n_rows decode_attend calls.
//   - score_increments: out = softmax((logit + noise) / tau) over one row
//     in double: y_i = double(logit_i) + noise_i, the max of y (from
//     -1e300), e_i = exp((y_i - max) / tau), then e_i * (1 / sum). A -inf
//     logit gives exactly 0.0; a row whose every entry is -inf (sum == 0)
//     gives all zeros, never NaN. The wide variants add, take the max and
//     sum in double lanes but evaluate each exp in float (Wide<V>::exp)
//     of (y_i - max) / tau rounded to float, so an element is
//     within 1e-5 relative of the scalar variant's, and one whose
//     exponent is below float exp's underflow cutoff (about -87.3) is
//     exactly 0 where scalar keeps a value under 1.2e-38. noise == out
//     aliasing is allowed.
#pragma once

#include <cstddef>

#include "cpu/cpu_isa.h"

namespace kf::cpu {

/// POD mirror of kv::KvSegment (src/cpu stays dependency-free): one
/// contiguous [count, dh] run of a head's K and V rows covering cache
/// indices [first, first + count).
struct KvSegmentView {
  const float* keys = nullptr;
  const float* values = nullptr;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// y[i] = dot(a_row_i, x) for rows [r0, r1) of the [*, k] matrix `a`.
using MatvecRowsFn = void (*)(const float* a, const float* x, float* y,
                              std::size_t r0, std::size_t r1, std::size_t k);

/// What gemm_rows does with each finished element of C (contract above).
/// kBiasGelu and kBiasAccumulate read the n-float `bias`; kStore ignores
/// it.
enum class Epilogue {
  kStore,           ///< C = A·B
  kBiasGelu,        ///< C = gelu(A·B + bias)
  kBiasAccumulate,  ///< C += A·B + bias
};

/// Rows [m0, m1) of C[m, n] = A[m, k] * B[k, n], all row-major, finished
/// by `epilogue`. C may not alias A or B; rows outside [m0, m1) are left
/// untouched. See the row-bits and epilogue contracts above.
using GemmRowsFn = void (*)(const float* a, const float* b, float* c,
                            std::size_t m0, std::size_t m1, std::size_t k,
                            std::size_t n, Epilogue epilogue,
                            const float* bias);

/// out = softmax(x / tau); see the aliasing / -inf contract above.
using SoftmaxFn = void (*)(const float* x, float* out, std::size_t n,
                           double tau);

/// Fused single-query attend for ONE head, decode and prompt rows alike:
///   - `segs`/`n_segs`: the head's K/V segment streams, jointly covering
///     [0, key_len) — a prompt row's causal prefix, clipped by the caller;
///   - `q_head`: the (already rotated, if RoPE) dh-float query;
///   - logits[i] = dot(K_i, q) * scale (+ bias[i] when bias != nullptr);
///   - `keys_override`, when non-null, is a contiguous [key_len, dh] key
///     matrix replacing the segments' key streams (the RoPE + kNew
///     rotated-scratch path); V still streams from the segments;
///   - writes logits to `lrow`, normalized probabilities to `prow`
///     (both key_len floats) and the normalized context to `ctx`
///     (dh floats).
using DecodeAttendFn = void (*)(const KvSegmentView* segs, std::size_t n_segs,
                                const float* q_head, std::size_t dh,
                                float scale, const float* bias,
                                const float* keys_override, float* lrow,
                                float* prow, float* ctx, std::size_t key_len);

/// The most query rows one attend_rows call takes.
inline constexpr std::size_t kAttendRows = 4;

/// Fused attend of n_rows (1..kAttendRows) consecutive query rows of ONE
/// head, a chunk's rows in order (a decode step's lone row is n_rows = 1):
/// row r is the decode_attend call over the first key_len + r keys, with
/// its own dh-float query at q + r * dh, bias row (when bias != nullptr),
/// logit row and probability row at bias/lrow/prow + r * row_stride, and
/// context at ctx + r * ctx_stride. `segs` cover the last row's keys
/// [0, key_len + n_rows - 1); `keys_override`, when non-null, covers them
/// too. Every row's outputs are bit-identical to that decode_attend call's.
using AttendRowsFn = void (*)(const KvSegmentView* segs, std::size_t n_segs,
                              const float* q, std::size_t dh, float scale,
                              const float* bias, const float* keys_override,
                              float* lrow, float* prow, std::size_t row_stride,
                              float* ctx, std::size_t ctx_stride,
                              std::size_t key_len, std::size_t n_rows);

/// Keyformer's score increments for one query row of one head (see the
/// contract above): `logits` and `out` hold n entries; `noise`, when
/// non-null, holds the n frozen logit adjustments (nullptr adds none).
using ScoreIncrementsFn = void (*)(const float* logits, const double* noise,
                                   double* out, std::size_t n, double tau);

/// One function-pointer slot per CpuIsa. Slots are filled once during
/// static initialization (narrow fallbacks for variants not compiled in)
/// and never change, so lookups are data-race free without atomics.
template <typename Fn>
struct DispatchStub {
  Fn table[kIsaCount];

  Fn get() const { return table[static_cast<int>(active_isa())]; }
  Fn get(CpuIsa isa) const { return table[static_cast<int>(isa)]; }
};

extern const DispatchStub<MatvecRowsFn> matvec_rows_stub;
extern const DispatchStub<GemmRowsFn> gemm_rows_stub;
extern const DispatchStub<SoftmaxFn> softmax_stub;
extern const DispatchStub<DecodeAttendFn> decode_attend_stub;
extern const DispatchStub<AttendRowsFn> attend_rows_stub;
extern const DispatchStub<ScoreIncrementsFn> score_increments_stub;

}  // namespace kf::cpu
