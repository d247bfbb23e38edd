// Internal explicit-SIMD helpers shared by the nn kernels (matrix.cpp,
// quant.cpp). GCC/Clang generic vector extensions, width probed at compile
// time (kSimdWidth below).
//
// Why explicit vectors instead of trusting the auto-vectorizer: the default
// -O2 cost model refuses runtime-trip-count loops, so the axpy kernels'
// inner j loops stay scalar exactly where the serving path needs them
// vectorized. These helpers force the issue without changing semantics.
//
// Determinism: every helper applies the SAME per-element operation chain as
// the scalar loop it replaces — lanes are independent elements, nothing
// reassociates across k — so vectorized kernels stay bit-identical to their
// scalar forms and the matrix.hpp contract is unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace pelican::nn {

/// Float lanes per vector, probed from what the compiler was actually
/// allowed to emit (not from what the build host supports at runtime): 16
/// under AVX-512, 8 under AVX/AVX2, 4 under SSE2 or NEON, 1 otherwise (the
/// helpers below then fall back to scalar stand-ins).
#if defined(__AVX512F__)
inline constexpr std::size_t kSimdWidth = 16;
#elif defined(__AVX__)
inline constexpr std::size_t kSimdWidth = 8;
#elif defined(__SSE2__) || defined(__ARM_NEON)
inline constexpr std::size_t kSimdWidth = 4;
#else
inline constexpr std::size_t kSimdWidth = 1;
#endif

}  // namespace pelican::nn

namespace pelican::nn::simd {

#if defined(__GNUC__) && (defined(__SSE2__) || defined(__AVX__) || \
                          defined(__AVX512F__) || defined(__ARM_NEON))
#define PELICAN_SIMD_KERNELS 1

using vfloat
    __attribute__((vector_size(kSimdWidth * sizeof(float)))) = float;
using vint
    __attribute__((vector_size(kSimdWidth * sizeof(std::int32_t)))) =
        std::int32_t;
using vuint
    __attribute__((vector_size(kSimdWidth * sizeof(std::uint32_t)))) =
        std::uint32_t;
/// What a lane comparison returns: all bits set where it holds.
using vmask = vint;

inline vfloat broadcast(float x) noexcept {
  vfloat v;
  for (std::size_t i = 0; i < kSimdWidth; ++i) v[i] = x;
  return v;
}

inline vint broadcast(std::int32_t x) noexcept {
  vint v;
  for (std::size_t i = 0; i < kSimdWidth; ++i) v[i] = x;
  return v;
}

/// Per lane: m ? a : b. Both sides are computed; reinterpret lanes between
/// vfloat, vint and vuint with std::bit_cast.
template <typename V>
inline V select(vmask m, V a, V b) noexcept {
  return m ? a : b;
}

/// Per-lane float -> int32 conversion, truncating like a C cast.
inline vint to_int(vfloat v) noexcept {
  return __builtin_convertvector(v, vint);
}

inline vfloat to_float(vint v) noexcept {
  return __builtin_convertvector(v, vfloat);
}

inline vfloat load(const float* p) noexcept {
  vfloat v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(float* p, vfloat v) noexcept { std::memcpy(p, &v, sizeof(v)); }

// NOTE: no int8 load helper on purpose. SSE2 has no lane-wise int8 sign
// extend, so a float-width __builtin_convertvector scalarizes badly; the
// int8 kernels (nn/quant.cpp) instead re-enable GCC's own vectorizer per
// function, which emits the efficient unpack sequence.

#else
#define PELICAN_SIMD_KERNELS 0

// One-lane stand-ins, so kernels written against the helpers also build
// without vector support.
static_assert(kSimdWidth == 1);
using vfloat = float;
using vint = std::int32_t;
using vuint = std::uint32_t;
using vmask = bool;
inline vfloat broadcast(float x) noexcept { return x; }
inline vint broadcast(std::int32_t x) noexcept { return x; }
template <typename V>
inline V select(vmask m, V a, V b) noexcept {
  return m ? a : b;
}
inline vint to_int(vfloat v) noexcept { return static_cast<vint>(v); }
inline vfloat to_float(vint v) noexcept { return static_cast<vfloat>(v); }
inline vfloat load(const float* p) noexcept { return *p; }
inline void store(float* p, vfloat v) noexcept { *p = v; }
#endif

}  // namespace pelican::nn::simd
