// Declarations of the per-ISA kernel variants. Included only by the
// variant TUs (which define their namespace's entries) and by
// dispatch.cpp (which wires them into the tables) — never by code
// outside src/cpu (scripts/lint.py check 6).
//
// Every namespace implements the same six signatures from kernels.h;
// the scalar namespace is the semantics reference. The scalar helpers
// stay file-local to kernels_scalar.cpp; the avx2 and avx512 entries
// forward to kernels_wide.h's Wide<V>, whose helpers (dot, max,
// exp, GELU) have internal linkage in each of the two TUs.
#pragma once

#include <cstddef>

#include "cpu/kernels.h"

namespace kf::cpu {

#define KF_CPU_DECLARE_VARIANTS                                               \
  void matvec_rows(const float* a, const float* x, float* y, std::size_t r0,  \
                   std::size_t r1, std::size_t k);                            \
  void gemm_rows(const float* a, const float* b, float* c, std::size_t m0,   \
                 std::size_t m1, std::size_t k, std::size_t n,                \
                 Epilogue epilogue, const float* bias);                       \
  void softmax(const float* x, float* out, std::size_t n, double tau);        \
  void decode_attend(const KvSegmentView* segs, std::size_t n_segs,           \
                     const float* q_head, std::size_t dh, float scale,        \
                     const float* bias, const float* keys_override,           \
                     float* lrow, float* prow, float* ctx,                    \
                     std::size_t key_len);                                    \
  void attend_rows(const KvSegmentView* segs, std::size_t n_segs,             \
                   const float* q, std::size_t dh, float scale,               \
                   const float* bias, const float* keys_override,             \
                   float* lrow, float* prow, std::size_t row_stride,          \
                   float* ctx, std::size_t ctx_stride, std::size_t key_len,   \
                   std::size_t n_rows);                                       \
  void score_increments(const float* logits, const double* noise,             \
                        double* out, std::size_t n, double tau)

namespace scalar {
KF_CPU_DECLARE_VARIANTS;
}  // namespace scalar

#if defined(KF_BUILD_AVX2)
namespace avx2 {
KF_CPU_DECLARE_VARIANTS;
}  // namespace avx2
#endif

#if defined(KF_BUILD_AVX512)
namespace avx512 {
KF_CPU_DECLARE_VARIANTS;
}  // namespace avx512
#endif

#undef KF_CPU_DECLARE_VARIANTS

}  // namespace kf::cpu
