// How the nn kernels (matrix.cpp, quant.cpp, quant_lstm.cpp) and a served
// batch (core::DeployedModel::predict_top_k_batch) split rows across the
// global pool.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/thread_pool.hpp"

namespace pelican::nn {

/// Below this many multiply-adds per call, a row split costs more than it
/// saves.
inline constexpr std::size_t kParallelMacs = std::size_t{1} << 18;

/// Rows a pool task gets at least: enough that each int8 panel block it
/// converts is reused by two register tiles.
inline constexpr std::size_t kRowBlock = 8;

/// Most pool tasks one row split makes.
inline constexpr std::size_t kMaxRowTasks = 8;

/// Pool tasks a forward of `rows` rows at `macs_per_row` multiply-adds each
/// splits into: up to 8 of at least 8 rows once the work is worth a pool
/// dispatch, else 1. A batch of fewer than 16 rows stays on the caller.
[[nodiscard]] constexpr std::size_t row_tasks(
    std::size_t rows, std::size_t macs_per_row) noexcept {
  return rows * macs_per_row >= kParallelMacs
             ? std::clamp<std::size_t>(rows / kRowBlock, 1, kMaxRowTasks)
             : 1;
}

/// Splits [0, extent) into `chunks` contiguous ranges (at most extent) and
/// runs fn(begin, end) on each across the pool. The ranges are disjoint, so
/// per-element results never depend on the split (the matrix.hpp contract).
template <typename Fn>
void parallel_ranges(std::size_t extent, std::size_t chunks, Fn&& fn) {
  chunks = std::max<std::size_t>(1, std::min(chunks, extent));
  if (chunks == 1) {
    fn(std::size_t{0}, extent);
    return;
  }
  parallel_for(chunks, [&](std::size_t c) {
    fn(extent * c / chunks, extent * (c + 1) / chunks);
  });
}

}  // namespace pelican::nn
