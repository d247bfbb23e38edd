// The adversary's view of a deployed model: query encoded inputs, receive
// confidence scores for every class. Pelican's deployment (with or without
// the privacy layer) implements this interface; attacks are written against
// it so the same attack code measures leakage before and after the defense.
#pragma once

#include <cstddef>
#include <memory>

#include "mobility/dataset.hpp"
#include "nn/model.hpp"

namespace pelican::attack {

class BlackBoxModel {
 public:
  virtual ~BlackBoxModel() = default;

  /// Confidence scores (rows sum to 1) for a batch of encoded windows.
  [[nodiscard]] virtual nn::Matrix query(const nn::Sequence& input) = 0;

  /// Sparse-encoded query — the attack scorer's fast path (candidate
  /// windows are one-hot). The default densifies and delegates, so existing
  /// implementations keep working; real deployments override with the
  /// gather kernels and return bit-identical confidences either way.
  [[nodiscard]] virtual nn::Matrix query(const nn::SparseSequence& input) {
    return query(nn::to_dense(input));
  }

  /// A handle for one more scoring worker (parallel candidate scoring):
  /// the handle and this model may be queried from different threads at
  /// the same time. Models whose queries are already safe to share return
  /// a BlackBoxRef to themselves, not a copy, so queries through a handle
  /// are queries of THIS model and count against its budget. A handle must
  /// not outlive its model, nor be used after the model moves. Returns
  /// nullptr when the implementation cannot be queried concurrently
  /// (scoring then stays serial).
  [[nodiscard]] virtual std::unique_ptr<BlackBoxModel> replicate() {
    return nullptr;
  }

  [[nodiscard]] virtual std::size_t num_classes() const = 0;

  /// Encoding layout the model was trained with (needed to build candidate
  /// inputs). Part of the service API: the provider submits inputs in this
  /// format anyway.
  [[nodiscard]] virtual const mobility::EncodingSpec& spec() const = 0;
};

/// What replicate() returns for a model whose queries are safe to run
/// concurrently (DeployedModel, PlainBlackBox): a non-owning handle that
/// forwards every call to that model.
class BlackBoxRef final : public BlackBoxModel {
 public:
  explicit BlackBoxRef(BlackBoxModel& model) : model_(&model) {}

  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    return model_->query(input);
  }
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    return model_->query(input);
  }
  [[nodiscard]] std::unique_ptr<BlackBoxModel> replicate() override {
    return model_->replicate();
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return model_->spec();
  }

 private:
  BlackBoxModel* model_;
};

/// Adapter exposing a raw SequenceClassifier as a black box with standard
/// softmax confidences — a deployment *without* Pelican's privacy layer.
/// Queries run the model's const inference path, so they may run
/// concurrently; the adapter borrows the model, which must outlive it.
class PlainBlackBox final : public BlackBoxModel {
 public:
  PlainBlackBox(const nn::SequenceClassifier& model,
                mobility::EncodingSpec spec)
      : model_(&model), spec_(spec) {}

  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    return model_->predict_proba(input);
  }
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    return model_->predict_proba(input);
  }
  [[nodiscard]] std::unique_ptr<BlackBoxModel> replicate() override {
    return std::make_unique<BlackBoxRef>(*this);
  }

  [[nodiscard]] std::size_t num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return spec_;
  }

 private:
  const nn::SequenceClassifier* model_;
  mobility::EncodingSpec spec_;
};

}  // namespace pelican::attack
