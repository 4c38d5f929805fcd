// 64-byte-aligned allocation helpers for KV float storage.
//
// The dispatched SIMD kernels (src/cpu) use unaligned loads, so
// alignment is never a correctness requirement — but a 64-byte
// allocation base means AVX-512 loads on head-major segment starts never
// straddle a cache line, and keeps K/V rows from sharing lines with
// unrelated heap data. BlockPool slabs and KvCache emergency blocks
// allocate through these helpers; the pool asserts the slab alignment in
// debug builds (pinned by BlockPool.SlabAllocationsAre64ByteAligned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace kf {

/// Allocation alignment for KV float storage: one cache line, and the
/// widest vector width the dispatcher selects (AVX-512).
inline constexpr std::size_t kSimdAlign = 64;

/// True when `p` sits on a kSimdAlign boundary.
inline bool is_simd_aligned(const void* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % kSimdAlign == 0;
}

struct AlignedFloatDeleter {
  void operator()(float* p) const noexcept {
    ::operator delete[](p, std::align_val_t{kSimdAlign});
  }
};

/// Owning pointer to a kSimdAlign-aligned float array.
using AlignedFloatArray = std::unique_ptr<float[], AlignedFloatDeleter>;

/// Allocates `n` zero-initialized floats at kSimdAlign (the drop-in
/// replacement for std::make_unique<float[]>(n), which value-initializes
/// too).
inline AlignedFloatArray make_aligned_floats(std::size_t n) {
  auto* p = static_cast<float*>(
      ::operator new[](n * sizeof(float), std::align_val_t{kSimdAlign}));
  for (std::size_t i = 0; i < n; ++i) p[i] = 0.0F;
  return AlignedFloatArray{p};
}

}  // namespace kf
