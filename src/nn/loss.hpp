// Softmax, temperature-scaled softmax (Equation 1 of the paper) and
// cross-entropy loss.
//
// All softmax math runs in double precision with the max subtracted, so the
// privacy layer's extreme temperatures (T down to 1e-5) saturate cleanly to
// {0, 1} instead of producing NaNs, and the confidence *ordering* is exactly
// preserved — the invariant that lets Pelican keep model accuracy unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.hpp"

namespace pelican::nn {

/// Row-wise softmax with temperature: p_i = exp(z_i / T) / sum exp(z_j / T).
/// T = 1 is the standard softmax. Requires T > 0.
[[nodiscard]] Matrix softmax(const Matrix& logits, double temperature = 1.0);

/// Row-wise log-softmax (T = 1), numerically stable.
[[nodiscard]] Matrix log_softmax(const Matrix& logits);

/// Mean cross-entropy over the batch plus dL/dlogits.
struct LossResult {
  double loss = 0.0;
  Matrix grad_logits;  // batch x classes, already divided by batch size
};

/// labels[r] in [0, logits.cols()).
[[nodiscard]] LossResult softmax_cross_entropy(
    const Matrix& logits, std::span<const std::int32_t> labels);

/// Writes the indices of the min(top.size(), scores.size()) highest scores
/// into the front of `top`, best first, and returns how many it wrote. The
/// order: higher score first, lower index on ties (-0 ties +0), NaN below
/// every number. One pass over the scores, no allocation.
std::size_t topk_into(std::span<const float> scores,
                      std::span<std::size_t> top) noexcept;
std::size_t topk_into(std::span<const double> scores,
                      std::span<std::size_t> top) noexcept;

/// Indices of the k highest scores, in topk_into's order.
[[nodiscard]] std::vector<std::size_t> topk_indices(
    std::span<const float> scores, std::size_t k);
[[nodiscard]] std::vector<std::size_t> topk_indices(
    std::span<const double> scores, std::size_t k);

/// Per-row top-k over a (batch x classes) score matrix: row r of the result
/// equals topk_indices(scores.row(r), k). The reduction is strictly per-row,
/// so a batched forward followed by topk_rows produces exactly the results
/// of the corresponding single-row queries — the invariant the serving
/// engine's request coalescing relies on.
[[nodiscard]] std::vector<std::vector<std::size_t>> topk_rows(
    const Matrix& scores, std::size_t k);

}  // namespace pelican::nn
