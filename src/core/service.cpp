#include "core/service.hpp"

#include "common/timer.hpp"
#include "nn/loss.hpp"
#include "models/window_dataset.hpp"

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
  Stopwatch watch;
  // Sparse one-hot encoding: the LSTM input product becomes nnz row
  // gathers instead of an input_dim x 4*hidden GEMM per timestep, with
  // bit-identical logits (nn/sparse.hpp) — so this fast path cannot change
  // what any user is served.
  const nn::SparseSequence x = models::encode_windows_sparse(windows, spec_);
  if (stages != nullptr) {
    stages->encode = watch.seconds();
    watch.reset();
  }
  // Rank in the log domain: softmax at any temperature is strictly monotone
  // in the logits, so the top-k of the privacy-scaled confidences IS the
  // top-k of the logits. Ranking there sidesteps the float saturation of
  // the magnitude path at strong temperatures (ranks 2..k would otherwise
  // collapse into exact-zero ties), which is what keeps service quality
  // bit-identical with the privacy layer on — the Section V-B invariant.
  // A k-slot response reveals only the ordered index list it necessarily
  // reveals; graded magnitudes remain behind query().
  add_queries(windows.size());
  const nn::Matrix logits = model_.infer(x);
  if (stages != nullptr) {
    stages->forward = watch.seconds();
    watch.reset();
  }
  const auto top_rows = nn::topk_rows(logits, k);
  if (stages != nullptr) stages->rank = watch.seconds();
  std::vector<std::vector<std::uint16_t>> out;
  out.reserve(top_rows.size());
  for (const auto& top : top_rows) {
    std::vector<std::uint16_t> locations;
    locations.reserve(top.size());
    for (const std::size_t i : top) {
      locations.push_back(static_cast<std::uint16_t>(i));
    }
    out.push_back(std::move(locations));
  }
  return out;
}

}  // namespace pelican::core
