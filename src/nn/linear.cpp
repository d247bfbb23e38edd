#include "nn/linear.hpp"

#include <algorithm>
#include <stdexcept>

namespace pelican::nn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : weight_(Matrix::xavier(out_dim, in_dim, rng)),
      bias_(1, out_dim, 0.0f),
      grad_weight_(out_dim, in_dim, 0.0f),
      grad_bias_(1, out_dim, 0.0f) {}

Matrix Linear::infer(const Matrix& x) const {
  if (x.cols() != input_dim()) {
    throw std::invalid_argument("Linear: input width mismatch");
  }
  Matrix y;
  if (is_quantized()) {
    qmatmul(x, qweight_, y);
  } else {
    matmul_bt(x, weight_, y);
  }
  add_row_broadcast(y, bias_.row(0));
  return y;
}

Matrix Linear::infer(const SparseRows& x) const {
  if (x.cols() != input_dim()) {
    throw std::invalid_argument("Linear: input width mismatch");
  }
  Matrix y;
  if (is_quantized()) {
    sparse_qmatmul(x, qweight_, y);
  } else {
    sparse_matmul_bt(x, weight_, y);
  }
  add_row_broadcast(y, bias_.row(0));
  return y;
}

// Quantized heads are inference-only (backward throws), so they cache
// nothing.
Matrix Linear::forward(const Matrix& x) {
  Matrix y = infer(x);
  if (!is_quantized()) {
    cached_input_ = x;
    cached_sparse_ = SparseRows();
  }
  return y;
}

Matrix Linear::forward(const SparseRows& x) {
  Matrix y = infer(x);
  if (!is_quantized()) {
    cached_input_ = Matrix();
    cached_sparse_ = x;
  }
  return y;
}

Linear Linear::quantized() const {
  if (is_quantized()) return *this;
  Linear q;
  q.qweight_ = QuantizedMatrix::quantize_rows(weight_);
  q.bias_ = bias_;
  q.trainable_ = false;
  return q;
}

Matrix Linear::backward(const Matrix& grad_output) {
  if (is_quantized()) {
    throw std::logic_error(
        "Linear::backward: quantized heads are inference-only; train the "
        "fp32 original and re-publish");
  }
  const bool sparse = cached_input_.empty() && !cached_sparse_.empty();
  const std::size_t cached_rows =
      sparse ? cached_sparse_.rows() : cached_input_.rows();
  if (grad_output.rows() != cached_rows ||
      grad_output.cols() != weight_.rows()) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  if (sparse) {
    sparse_matmul_at(grad_output, cached_sparse_, grad_weight_,
                     /*accumulate=*/true);
  } else {
    matmul_at(grad_output, cached_input_, grad_weight_, /*accumulate=*/true);
  }
  column_sums(grad_output, grad_bias_.row(0));
  Matrix dx;
  matmul(grad_output, weight_, dx);
  return dx;
}

// Checkpoint section (model format v2): a leading storage-format byte
// distinguishes fp32 (0) from int8 (1) heads; the file header CRC covers
// both layouts.
void Linear::save(BinaryWriter& writer) const {
  writer.write_u8(is_quantized() ? 1 : 0);
  if (is_quantized()) {
    qweight_.save(writer);
    writer.write_f32_span(bias_.flat());
    return;
  }
  writer.write_u64(weight_.rows());
  writer.write_u64(weight_.cols());
  writer.write_f32_span(weight_.flat());
  writer.write_f32_span(bias_.flat());
  writer.write_u8(trainable_ ? 1 : 0);
}

Linear Linear::load(BinaryReader& reader) {
  const std::uint8_t format = reader.read_u8();
  Linear layer;
  if (format == 1) {
    layer.qweight_ = QuantizedMatrix::load(reader);
    const auto b = reader.read_f32_vector();
    if (b.size() != layer.qweight_.rows()) {
      throw SerializeError("Linear::load: bias size mismatch");
    }
    layer.bias_.resize(1, b.size());
    std::copy(b.begin(), b.end(), layer.bias_.data());
    layer.trainable_ = false;
    return layer;
  }
  if (format != 0) {
    throw SerializeError("Linear::load: unknown storage format " +
                         std::to_string(format));
  }
  const std::uint64_t out_dim = reader.read_u64();
  const std::uint64_t in_dim = reader.read_u64();
  // The stored vectors come first: the reader bounds their lengths by the
  // bytes left, so hostile header dimensions can only fail the comparison
  // below, never size an allocation.
  const auto w = reader.read_f32_vector();
  const auto b = reader.read_f32_vector();
  if (w.size() != checked_product(out_dim, in_dim, "Linear::load") ||
      b.size() != out_dim) {
    throw SerializeError("Linear::load: size mismatch");
  }
  layer.weight_.resize(out_dim, in_dim);
  std::copy(w.begin(), w.end(), layer.weight_.data());
  layer.bias_.resize(1, out_dim);
  std::copy(b.begin(), b.end(), layer.bias_.data());
  layer.grad_weight_.resize(out_dim, in_dim);
  layer.grad_bias_.resize(1, out_dim);
  layer.trainable_ = reader.read_u8() != 0;
  return layer;
}

}  // namespace pelican::nn
