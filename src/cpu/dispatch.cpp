// Dispatch-table definitions: each stub's slots are filled with the
// widest variant available at build time, falling back down the chain
// (avx512 -> avx2 -> scalar) for slots whose variant was not compiled.
// A slot is only ever *selected* on a host that supports it (cpu_isa.cpp
// clamps), so filling e.g. the avx512 slot with the avx2 variant in an
// AVX2-only build is both safe and what makes every table index valid.

#include "cpu/variants.h"

namespace kf::cpu {

namespace {

#if defined(KF_BUILD_AVX2)
#define KF_AVX2(fn) avx2::fn
#else
#define KF_AVX2(fn) scalar::fn
#endif

#if defined(KF_BUILD_AVX512)
#define KF_AVX512(fn) avx512::fn
#else
#define KF_AVX512(fn) KF_AVX2(fn)
#endif

#define KF_FILL_TABLE(fn) \
  { scalar::fn, KF_AVX2(fn), KF_AVX512(fn) }

}  // namespace

const DispatchStub<MatvecRowsFn> matvec_rows_stub = {
    KF_FILL_TABLE(matvec_rows)};
const DispatchStub<GemmRowsFn> gemm_rows_stub = {KF_FILL_TABLE(gemm_rows)};
const DispatchStub<SoftmaxFn> softmax_stub = {KF_FILL_TABLE(softmax)};
const DispatchStub<DecodeAttendFn> decode_attend_stub = {
    KF_FILL_TABLE(decode_attend)};
const DispatchStub<AttendRowsFn> attend_rows_stub = {
    KF_FILL_TABLE(attend_rows)};
const DispatchStub<ScoreIncrementsFn> score_increments_stub = {
    KF_FILL_TABLE(score_increments)};

}  // namespace kf::cpu
