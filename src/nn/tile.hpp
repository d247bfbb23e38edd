// Internal: the register tile every dense product runs, the fp32 kernel
// (matrix.cpp) over its operands in place and the int8 kernel (quant.cpp)
// over a converted block of weight columns. Like nn/simd.hpp, only nn's
// .cpp files include this header: it carries lane types.
#pragma once

#include <cstddef>

#include "nn/simd.hpp"

namespace pelican::nn {

// Unnamed, as in a .cpp: each kernel file gets its own copy, which the
// compiler inlines and specializes at its call sites (the int8 kernel's
// constant panel stride and unit row step).
namespace {

/// kTileRows rows x kTileVecs vectors of output chains stay in registers
/// for a whole ascending-k sweep (8 of SSE2's and AVX2's 16 vector
/// registers), so each panel vector is loaded once per k for all the
/// tile's rows and each output is loaded and stored once.
inline constexpr std::size_t kTileRows = 4;
inline constexpr std::size_t kTileVecs = 2;
inline constexpr std::size_t kTileCols = kTileVecs * kSimdWidth;

/// Runs the chains of the R x (V vectors) tile at c (row stride ldc):
/// c(r, j) += a(r, kk) * panel(kk, j) for kk = 0..k-1 in ascending order,
/// one chain per element held in a register lane, the rows' chains never
/// mixed. The chains continue from c's values, or start at +0 when Fresh
/// (the int8 kernel, which scales each finished chain before it reaches
/// its output). a(r, kk) is a[r * a_row + kk * a_k], so matmul_at reads
/// its first operand transposed in place. Lanes perform the scalar chain's
/// multiply and add, so bits equal it (the matrix.hpp contract).
template <std::size_t R, std::size_t V, bool Fresh>
void register_tile(const float* __restrict a, std::size_t a_row,
                   std::size_t a_k, const float* __restrict panel,
                   std::size_t ldp, std::size_t k, float* __restrict c,
                   std::size_t ldc) noexcept {
  simd::vfloat acc[R][V];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (Fresh) {
        acc[r][v] = simd::vfloat{};
      } else {
        acc[r][v] = simd::load(c + r * ldc + v * kSimdWidth);
      }
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    simd::vfloat p[V];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      p[v] = simd::load(panel + kk * ldp + v * kSimdWidth);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      // Vector times scalar: the compiler splats av with one broadcast.
      const float av = a[r * a_row + kk * a_k];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += p[v] * av;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      simd::store(c + r * ldc + v * kSimdWidth, acc[r][v]);
    }
  }
}

/// register_tile<rows, V, Fresh> for a row count up to kTileRows (the row
/// tail runs a smaller tile).
template <std::size_t V, bool Fresh = false>
void run_tile(std::size_t rows, const float* a, std::size_t a_row,
              std::size_t a_k, const float* panel, std::size_t ldp,
              std::size_t k, float* c, std::size_t ldc) noexcept {
  switch (rows) {
    case 1:
      register_tile<1, V, Fresh>(a, a_row, a_k, panel, ldp, k, c, ldc);
      break;
    case 2:
      register_tile<2, V, Fresh>(a, a_row, a_k, panel, ldp, k, c, ldc);
      break;
    case 3:
      register_tile<3, V, Fresh>(a, a_row, a_k, panel, ldp, k, c, ldc);
      break;
    default:
      register_tile<kTileRows, V, Fresh>(a, a_row, a_k, panel, ldp, k, c, ldc);
  }
}

}  // namespace
}  // namespace pelican::nn
