// Internal: how the nn kernels (matrix.cpp, quant.cpp, quant_lstm.cpp) split
// a product across the global pool.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/thread_pool.hpp"

namespace pelican::nn {

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
