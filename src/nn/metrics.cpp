#include "nn/metrics.hpp"

#include <algorithm>
#include <numeric>

#include "nn/loss.hpp"

namespace pelican::nn {

Matrix forward_batch(SequenceClassifier& model, const BatchSource& data,
                     std::span<const std::uint32_t> indices,
                     std::vector<std::int32_t>& y) {
  if (data.sparse()) {
    SparseSequence sx;
    data.materialize_sparse(indices, sx, y);
    return model.forward(sx, /*training=*/true);
  }
  Sequence x;
  data.materialize(indices, x, y);
  return model.forward(x, /*training=*/true);
}

Matrix infer_batch(const SequenceClassifier& model, const BatchSource& data,
                   std::span<const std::uint32_t> indices,
                   std::vector<std::int32_t>& y) {
  if (data.sparse()) {
    SparseSequence sx;
    data.materialize_sparse(indices, sx, y);
    return model.infer(sx);
  }
  Sequence x;
  data.materialize(indices, x, y);
  return model.infer(x);
}

bool topk_hit(std::span<const float> scores, std::size_t label,
              std::size_t k) {
  const float label_score = scores[label];
  // Count entries strictly greater, and equal entries with a smaller index
  // (the deterministic tie-break used by topk_indices).
  std::size_t rank = 0;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (scores[c] > label_score || (scores[c] == label_score && c < label)) {
      if (++rank >= k) return false;
    }
  }
  return true;
}

std::vector<double> topk_accuracies(const SequenceClassifier& model,
                                    const BatchSource& data,
                                    std::span<const std::size_t> ks,
                                    std::size_t batch_size) {
  std::vector<double> hits(ks.size(), 0.0);
  if (data.size() == 0) return hits;

  std::vector<std::int32_t> y;
  std::vector<std::uint32_t> indices;
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t end = std::min(data.size(), start + batch_size);
    indices.resize(end - start);
    std::iota(indices.begin(), indices.end(),
              static_cast<std::uint32_t>(start));
    const Matrix logits = infer_batch(model, data, indices, y);
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      for (std::size_t ki = 0; ki < ks.size(); ++ki) {
        if (topk_hit(logits.row(r), static_cast<std::size_t>(y[r]), ks[ki])) {
          hits[ki] += 1.0;
        }
      }
    }
  }
  for (auto& h : hits) h /= static_cast<double>(data.size());
  return hits;
}

double topk_accuracy(const SequenceClassifier& model,
                     const BatchSource& data, std::size_t k,
                     std::size_t batch_size) {
  const std::size_t ks[] = {k};
  return topk_accuracies(model, data, ks, batch_size)[0];
}

}  // namespace pelican::nn
