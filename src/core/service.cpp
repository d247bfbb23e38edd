#include "core/service.hpp"

#include <atomic>

#include "common/timer.hpp"
#include "models/window_dataset.hpp"
#include "nn/loss.hpp"
#include "nn/parallel.hpp"

namespace pelican::core {

std::vector<std::uint16_t> DeployedModel::predict_top_k(
    const mobility::Window& window, std::size_t k) const {
  return predict_top_k_batch(std::span<const mobility::Window>(&window, 1),
                             k)[0];
}

std::vector<std::vector<std::uint16_t>> DeployedModel::predict_top_k_batch(
    std::span<const mobility::Window> windows, std::size_t k,
    PredictStageSeconds* stages) const {
  if (windows.empty()) return {};
  std::vector<std::vector<std::uint16_t>> out(windows.size());
  const std::size_t tasks = nn::row_tasks(
      windows.size(), model_.macs_per_row(mobility::kWindowSteps));
  std::atomic<std::size_t> finished{0};
  nn::parallel_ranges(windows.size(), tasks, [&](std::size_t r0,
                                                 std::size_t r1) {
    PredictStageSeconds split;
    Stopwatch watch;
    const auto lap = [&](double& seconds) {
      if (stages == nullptr) return;
      seconds = watch.seconds();
      watch.reset();
    };
    // Sparse one-hot encoding: the LSTM input product becomes nnz row
    // gathers instead of an input_dim x 4*hidden GEMM per timestep, with
    // bit-identical logits (nn/sparse.hpp) — so this fast path cannot
    // change what any user is served.
    const nn::SparseSequence x =
        models::encode_windows_sparse(windows.subspan(r0, r1 - r0), spec_);
    lap(split.encode);
    const nn::Matrix logits = model_.infer(x);
    lap(split.forward);
    // Rank in the log domain: softmax at any temperature is strictly
    // monotone in the logits, so the top-k of the privacy-scaled
    // confidences IS the top-k of the logits. Ranking there sidesteps the
    // float saturation of the magnitude path at strong temperatures (ranks
    // 2..k would otherwise collapse into exact-zero ties), which is what
    // keeps service quality bit-identical with the privacy layer on — the
    // Section V-B invariant. A k-slot response reveals only the ordered
    // index list it necessarily reveals; graded magnitudes remain behind
    // query().
    std::vector<std::size_t> top(std::min(k, logits.cols()));
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t ranked = nn::topk_into(logits.row(r - r0), top);
      out[r].resize(ranked);
      for (std::size_t i = 0; i < ranked; ++i) {
        out[r][i] = static_cast<std::uint16_t>(top[i]);
      }
    }
    lap(split.rank);
    if (stages != nullptr && finished.fetch_add(1) + 1 == tasks) {
      *stages = split;
    }
  });
  add_queries(windows.size());
  return out;
}

}  // namespace pelican::core
