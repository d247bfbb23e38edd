#include "nn/model.hpp"

#include <stdexcept>

#include "nn/dropout.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/quant_lstm.hpp"

namespace pelican::nn {

namespace {
// v2: Linear sections gained a leading storage-format byte (fp32 vs int8)
// and the "qlstm" layer kind exists. v1 checkpoints are rejected at the
// header version check; every writer of persistent checkpoints (the model
// store, the bench pipeline cache) retrains/re-publishes on load failure.
constexpr std::uint32_t kModelFormatVersion = 2;
}  // namespace

void SequenceClassifier::add_layer(std::unique_ptr<SequenceLayer> layer) {
  layers_.push_back(std::move(layer));
}

void SequenceClassifier::insert_layer(std::size_t index,
                                      std::unique_ptr<SequenceLayer> layer) {
  if (index > layers_.size()) {
    throw std::out_of_range("insert_layer: index out of range");
  }
  layers_.insert(layers_.begin() + static_cast<std::ptrdiff_t>(index),
                 std::move(layer));
}

std::size_t SequenceClassifier::input_dim() const {
  if (layers_.empty()) return head_.input_dim();
  return layers_.front()->input_dim();
}

std::size_t SequenceClassifier::macs_per_row(std::size_t steps) const {
  std::size_t macs = head_.input_dim() * head_.output_dim();
  for (const auto& layer : layers_) macs += steps * layer->macs_per_step();
  return macs;
}

namespace {

/// The shared body of both infer overloads: the first layer takes the
/// input in its own encoding, everything above it is dense.
template <typename Input>
Matrix infer_stack(const std::vector<std::unique_ptr<SequenceLayer>>& layers,
                   const Linear& head, const Input& input) {
  if (input.empty()) {
    throw std::invalid_argument("SequenceClassifier::infer: empty input");
  }
  if (layers.empty()) return head.infer(input.back());
  Sequence activations = layers.front()->infer(input);
  for (std::size_t i = 1; i < layers.size(); ++i) {
    activations = layers[i]->infer(activations);
  }
  return head.infer(activations.back());
}

}  // namespace

Matrix SequenceClassifier::infer(const Sequence& input) const {
  return infer_stack(layers_, head_, input);
}

Matrix SequenceClassifier::infer(const SparseSequence& input) const {
  return infer_stack(layers_, head_, input);
}

Matrix SequenceClassifier::forward(const Sequence& input, bool training) {
  if (input.empty()) {
    throw std::invalid_argument("SequenceClassifier::forward: empty input");
  }
  cached_batch_ = input[0].rows();
  cached_steps_ = input.size();

  Sequence activations = input;
  for (const auto& layer : layers_) {
    activations = layer->forward(activations, training);
  }
  return head_.forward(activations.back());
}

Sequence SequenceClassifier::backward(const Matrix& grad_logits) {
  if (grad_logits.rows() != cached_batch_) {
    throw std::invalid_argument(
        "SequenceClassifier::backward: batch mismatch with last forward");
  }
  const Matrix grad_last = head_.backward(grad_logits);

  // Only the final timestep receives gradient from the head; earlier steps
  // start empty (treated as zero by the layers).
  Sequence grads(cached_steps_);
  grads.back() = grad_last;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grads = (*it)->backward(grads);
  }
  return grads;
}

Matrix SequenceClassifier::forward(const SparseSequence& input,
                                   bool training) {
  if (input.empty()) {
    throw std::invalid_argument("SequenceClassifier::forward: empty input");
  }
  cached_batch_ = input[0].rows();
  cached_steps_ = input.size();

  if (layers_.empty()) return head_.forward(input.back());
  Sequence activations = layers_.front()->forward_sparse(input, training);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    activations = layers_[i]->forward(activations, training);
  }
  return head_.forward(activations.back());
}

Matrix SequenceClassifier::predict_proba(const Sequence& input,
                                         double temperature) const {
  return softmax(infer(input), temperature);
}

Matrix SequenceClassifier::predict_proba(const SparseSequence& input,
                                         double temperature) const {
  return softmax(infer(input), temperature);
}

void SequenceClassifier::zero_grad() {
  for (const auto& layer : layers_) layer->zero_grad();
  head_.zero_grad();
}

std::vector<ParamRef> SequenceClassifier::trainable_params() {
  std::vector<ParamRef> refs;
  for (const auto& layer : layers_) {
    if (!layer->trainable()) continue;
    const auto params = layer->parameters();
    const auto grads = layer->gradients();
    for (std::size_t i = 0; i < params.size(); ++i) {
      refs.push_back({params[i], grads[i]});
    }
  }
  if (head_.trainable()) {
    const auto params = head_.parameters();
    const auto grads = head_.gradients();
    for (std::size_t i = 0; i < params.size(); ++i) {
      refs.push_back({params[i], grads[i]});
    }
  }
  return refs;
}

std::vector<ParamRef> SequenceClassifier::all_params() {
  std::vector<ParamRef> refs;
  for (const auto& layer : layers_) {
    const auto params = layer->parameters();
    const auto grads = layer->gradients();
    for (std::size_t i = 0; i < params.size(); ++i) {
      refs.push_back({params[i], grads[i]});
    }
  }
  const auto params = head_.parameters();
  const auto grads = head_.gradients();
  for (std::size_t i = 0; i < params.size(); ++i) {
    refs.push_back({params[i], grads[i]});
  }
  return refs;
}

std::size_t SequenceClassifier::parameter_count() const {
  std::size_t total = 0;
  auto& self = const_cast<SequenceClassifier&>(*this);
  for (const auto& ref : self.all_params()) total += ref.value->size();
  return total;
}

SequenceClassifier SequenceClassifier::clone() const {
  SequenceClassifier copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
  copy.head_ = head_;
  return copy;
}

void SequenceClassifier::save(BinaryWriter& writer) const {
  writer.write_u64(layers_.size());
  for (const auto& layer : layers_) layer->save(writer);
  head_.save(writer);
}

void SequenceClassifier::save_file(const std::filesystem::path& path) const {
  BinaryWriter writer(path, kModelFormatVersion);
  save(writer);
  writer.finish();
}

SequenceClassifier SequenceClassifier::load(BinaryReader& reader) {
  SequenceClassifier model;
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    model.layers_.push_back(load_layer(reader));
  }
  model.head_ = Linear::load(reader);
  return model;
}

SequenceClassifier SequenceClassifier::load_file(
    const std::filesystem::path& path) {
  BinaryReader reader(path, kModelFormatVersion);
  return load(reader);
}

std::unique_ptr<SequenceLayer> load_layer(BinaryReader& reader) {
  const std::string kind = reader.read_string();
  if (kind == "lstm") return Lstm::load(reader);
  if (kind == "qlstm") return QuantizedLstm::load(reader);
  if (kind == "dropout") return Dropout::load(reader);
  throw SerializeError("load_layer: unknown layer kind '" + kind + "'");
}

SequenceClassifier quantize_for_serving(const SequenceClassifier& model) {
  SequenceClassifier quantized;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const SequenceLayer& layer = model.layer(i);
    if (const auto* lstm = dynamic_cast<const Lstm*>(&layer)) {
      quantized.add_layer(std::make_unique<QuantizedLstm>(
          QuantizedMatrix::quantize_rows(lstm->w_ih()),
          QuantizedMatrix::quantize_rows(lstm->w_hh()), lstm->bias()));
    } else {
      // Dropout (inference no-op) and already-quantized layers pass
      // through; anything trainable keeps its fp32 weights — only the
      // LSTM/head products dominate bytes and serving FLOPs.
      quantized.add_layer(layer.clone());
    }
  }
  quantized.set_head(model.head().quantized());
  return quantized;
}

bool is_quantized(const SequenceClassifier& model) {
  if (model.head().is_quantized()) return true;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (model.layer(i).kind() == "qlstm") return true;
  }
  return false;
}

SequenceClassifier make_two_layer_lstm(std::size_t input_dim,
                                       std::size_t hidden_dim,
                                       std::size_t num_classes,
                                       double dropout_rate, Rng& rng) {
  SequenceClassifier model;
  model.add_layer(std::make_unique<Lstm>(input_dim, hidden_dim, rng));
  if (dropout_rate > 0.0) {
    model.add_layer(
        std::make_unique<Dropout>(dropout_rate, hidden_dim, rng.fork(11)()));
  }
  model.add_layer(std::make_unique<Lstm>(hidden_dim, hidden_dim, rng));
  model.set_head(Linear(hidden_dim, num_classes, rng));
  return model;
}

SequenceClassifier make_one_layer_lstm(std::size_t input_dim,
                                       std::size_t hidden_dim,
                                       std::size_t num_classes,
                                       double dropout_rate, Rng& rng) {
  SequenceClassifier model;
  model.add_layer(std::make_unique<Lstm>(input_dim, hidden_dim, rng));
  if (dropout_rate > 0.0) {
    model.add_layer(
        std::make_unique<Dropout>(dropout_rate, hidden_dim, rng.fork(13)()));
  }
  model.set_head(Linear(hidden_dim, num_classes, rng));
  return model;
}

}  // namespace pelican::nn
