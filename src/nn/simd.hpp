// Internal explicit-SIMD helpers shared by the nn kernels (matrix.cpp,
// quant.cpp, activations.cpp). GCC/Clang generic vector extensions, width
// probed at compile time (kSimdWidth below).
//
// Why explicit vectors instead of trusting the auto-vectorizer: the default
// -O2 cost model refuses runtime-trip-count loops, so the kernels' inner
// loops stay scalar exactly where the serving path needs them vectorized.
// These helpers vectorize them without changing semantics.
//
// Determinism: every helper applies the SAME per-element operation chain as
// the scalar loop it replaces — lanes are independent elements, nothing
// reassociates across k — so vectorized kernels stay bit-identical to their
// scalar forms and the matrix.hpp contract is unaffected.
//
// Width: a default build on a host that runs x86-64-v3 compiles every target
// for it (root CMakeLists.txt), so vectors are 8 floats (AVX2) there; an
// explicit -DCMAKE_CXX_FLAGS=-march=x86-64 gives 4 (SSE2). Every width
// computes the same bits, because nothing is built with FMA contraction.
// Only nn's .cpp files and their unit test include this header, and no
// public header may carry a lane type: bench/e2e builds its own objects at
// its own level, and the linker keeps one copy of an inline function that
// both sides instantiate, the first in link order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

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

/// Double lanes, for kernels that port a libm routine computing in double
/// (glibc's expf). A vfloat's lanes widen in two halves, each a vdouble of
/// the vfloat's own size, so no value that crosses a call is wider than a
/// vfloat (a 32-byte vector passed without AVX changes the ABI, which
/// -Wpsabi reports).
inline constexpr std::size_t kDoubleWidth = kSimdWidth / 2;
using vdouble
    __attribute__((vector_size(kDoubleWidth * sizeof(double)))) = double;
using vulong
    __attribute__((vector_size(kDoubleWidth * sizeof(std::uint64_t)))) =
        std::uint64_t;

template <vdouble (*kFn)(vdouble) noexcept, std::size_t... I>
[[gnu::always_inline]] inline vfloat in_double(
    vfloat v, std::index_sequence<I...>) noexcept {
  // All lanes widen and narrow at once (cvtps2pd on each half, not one
  // convert per lane), in a vector that never leaves this body.
  using vwide
      __attribute__((vector_size(kSimdWidth * sizeof(double)))) = double;
  const vwide wide = __builtin_convertvector(v, vwide);
  const vdouble lo = kFn(__builtin_shufflevector(wide, wide, I...));
  const vdouble hi =
      kFn(__builtin_shufflevector(wide, wide, (I + kDoubleWidth)...));
  return __builtin_convertvector(
      __builtin_shufflevector(lo, hi, I..., (I + kDoubleWidth)...), vfloat);
}

/// Per lane: (float)kFn((double)v), with kFn run on each half of the lanes.
template <vdouble (*kFn)(vdouble) noexcept>
[[gnu::always_inline]] inline vfloat in_double(vfloat v) noexcept {
  return in_double<kFn>(v, std::make_index_sequence<kDoubleWidth>());
}

/// Whether any lane of `m` is set.
inline bool any(vmask m) noexcept {
  std::uint64_t words[sizeof(m) / sizeof(std::uint64_t)];
  std::memcpy(words, &m, sizeof(m));
  std::uint64_t set = 0;
  for (const std::uint64_t word : words) set |= word;
  return set != 0;
}

/// Per lane: table[index]; every index must be in range.
inline vulong lookup(const std::uint64_t* table, vulong index) noexcept {
  vulong v;
  for (std::size_t i = 0; i < kDoubleWidth; ++i) v[i] = table[index[i]];
  return v;
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
inline constexpr std::size_t kDoubleWidth = 1;
using vdouble = double;
using vulong = std::uint64_t;
template <vdouble (*kFn)(vdouble) noexcept>
inline vfloat in_double(vfloat v) noexcept {
  return static_cast<vfloat>(kFn(v));
}
inline bool any(vmask m) noexcept { return m; }
inline vulong lookup(const std::uint64_t* table, vulong index) noexcept {
  return table[index];
}
inline vfloat load(const float* p) noexcept { return *p; }
inline void store(float* p, vfloat v) noexcept { *p = v; }
#endif

}  // namespace pelican::nn::simd
