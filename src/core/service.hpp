// Model deployment and the service-provider query interface (Section V-A3).
//
// A DeployedModel bundles a personalized model with the user's PrivacyLayer
// and implements the attack::BlackBoxModel interface — by construction the
// service provider (and therefore the inversion adversary) can only ever
// observe privacy-scaled confidences. Deployment is either on-device or
// in-cloud; the query API is identical, which is what lets Pelican keep the
// defense effective in both placements.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "attack/blackbox.hpp"
#include "core/privacy_layer.hpp"
#include "mobility/dataset.hpp"
#include "nn/model.hpp"

namespace pelican::core {

enum class DeploymentSite : std::uint8_t { kOnDevice = 0, kInCloud };

[[nodiscard]] constexpr const char* to_string(DeploymentSite site) noexcept {
  return site == DeploymentSite::kOnDevice ? "device" : "cloud";
}

/// Per-stage wall-clock breakdown of one predict_top_k_batch call: that of
/// the row range that finished last (see predict_top_k_batch). A plain
/// out-param struct (not an obs type) so core stays below the observability
/// layer in the lattice; the serving tier maps these onto its stage
/// histograms and trace spans.
struct PredictStageSeconds {
  double encode = 0.0;   ///< window -> sparse one-hot encoding
  double forward = 0.0;  ///< LSTM + head forward pass
  double rank = 0.0;     ///< top-k ranking over the logits
};

/// A personalized model as exposed to the mobile service.
class DeployedModel final : public attack::BlackBoxModel {
 public:
  /// `model_version` tags which stored model version (store::ModelKey
  /// version) this deployment serves; 0 means "unversioned" (built directly
  /// from a model object rather than published from a store).
  DeployedModel(nn::SequenceClassifier model, mobility::EncodingSpec spec,
                PrivacyLayer privacy, DeploymentSite site,
                std::uint32_t model_version = 0)
      : model_(std::move(model)),
        spec_(spec),
        privacy_(privacy),
        site_(site),
        model_version_(model_version) {}

  /// Black-box prediction: inference + privacy-scaled softmax. This is
  /// the ONLY read path; raw logits never leave the deployment. Reads run
  /// the model's const inference path and count on an atomic, so any number
  /// of threads may query one deployment at once.
  ///
  /// Query accounting is per ROW served, not per forward call: a batched
  /// input of B rows spends B units of the attack query budget, exactly as
  /// B single queries would. Anything else would make privacy audits
  /// (Section V, attack query counts) depend on how the adversary batches.
  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    add_queries(input.empty() ? 0 : input.front().rows());
    return privacy_.apply(model_.infer(input));
  }

  /// Sparse-encoded query: the same confidences, bit for bit, via the
  /// one-hot gather kernels (nn/sparse.hpp). Same per-row budget spend.
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    add_queries(input.empty() ? 0 : input.front().rows());
    return privacy_.apply(model_.infer(input));
  }

  /// Deep copy: duplicates the model, privacy layer, and placement, and
  /// snapshots the current query count. The copy is fully independent: it
  /// counts its own queries from there on.
  [[nodiscard]] DeployedModel clone() const {
    DeployedModel copy(model_.clone(), spec_, privacy_, site_,
                       model_version_);
    copy.set_query_count(query_count());
    return copy;
  }

  /// attack::BlackBoxModel::replicate: a handle to this same deployment,
  /// not a copy. Queries are safe to share, so every scoring worker queries
  /// this model and spends this user's budget. The handle must not outlive
  /// the deployment or be used after it moves.
  [[nodiscard]] std::unique_ptr<attack::BlackBoxModel> replicate() override {
    return std::make_unique<attack::BlackBoxRef>(*this);
  }

  [[nodiscard]] std::size_t num_classes() const override {
    return model_.num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return spec_;
  }

  /// Top-k next locations for a single encoded window — the service's
  /// primary operation (e.g. prefetching content for likely destinations).
  [[nodiscard]] std::vector<std::uint16_t> predict_top_k(
      const mobility::Window& window, std::size_t k) const;

  /// Batched top-k, so a coalescing serving engine amortizes the LSTM
  /// across B queries. Row r of the result is bit-identical to
  /// predict_top_k(windows[r], k): every kernel under infer() accumulates
  /// per-row in a fixed order and the top-k reduction is per-row, so batching
  /// never changes what any user is served (the Section V-B service-quality
  /// invariant, now also batch-size-independent).
  ///
  /// Threads: the rows split once into contiguous ranges, nn::row_tasks of
  /// them for the model's multiply-adds per row (up to 8 ranges of at least
  /// 8 rows once the batch is worth a pool dispatch; fewer than 16 rows,
  /// and any small model, stay on the calling thread). Each range runs on
  /// one pool thread, the caller included, and encodes its windows, runs
  /// one forward over them and ranks its own logits rows, so a call wakes
  /// the pool once and no row's activations leave the core that computed
  /// them. The layers' own row splits run inline there. A call made from
  /// inside a pool task (a scheduler drain running several chunks) runs
  /// every range inline.
  ///
  /// The call charges the query budget once per row after every range has
  /// finished, so a window outside the encoding domain in any range throws,
  /// fails the whole call and charges nothing.
  ///
  /// When `stages` is non-null the range that finishes last writes its
  /// encode/forward/rank wall-clock split into it (three extra clock reads
  /// per range; passing nullptr, the default, skips them).
  [[nodiscard]] std::vector<std::vector<std::uint16_t>> predict_top_k_batch(
      std::span<const mobility::Window> windows, std::size_t k,
      PredictStageSeconds* stages = nullptr) const;

  [[nodiscard]] DeploymentSite site() const noexcept { return site_; }
  [[nodiscard]] std::size_t query_count() const noexcept {
    return queries_.count.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double temperature() const noexcept {
    return privacy_.temperature();
  }
  [[nodiscard]] const PrivacyLayer& privacy() const noexcept {
    return privacy_;
  }
  /// Which stored model version this deployment serves (0 = unversioned).
  [[nodiscard]] std::uint32_t model_version() const noexcept {
    return model_version_;
  }

  /// True when this deployment serves an int8 artifact (the store published
  /// it with PublishFormat::kInt8). Queries then run the dequant-free
  /// quantized kernels; answers track an fp32 deployment of the same weights
  /// within the nn/quant.hpp tolerance rather than bit-identically.
  [[nodiscard]] bool quantized() const { return nn::is_quantized(model_); }

  /// Model-update bookkeeping: the attack query budget is cumulative per
  /// USER, not per model object, so a replacement deployment published for
  /// the same user inherits the count the old one accumulated.
  void set_query_count(std::size_t count) noexcept {
    queries_.count.store(count, std::memory_order_relaxed);
  }

  /// Replaces the model in place (on-device Pelican model update, Section
  /// V-A4). The serving engine's multi-user path does NOT use this — it
  /// publishes a whole replacement DeployedModel so in-flight forwards keep
  /// a consistent model (serve::DeploymentRegistry::publish).
  void swap_model(nn::SequenceClassifier model) { model_ = std::move(model); }

  /// Owner-only access (the user's device); not part of the service API.
  [[nodiscard]] nn::SequenceClassifier& owner_model() noexcept {
    return model_;
  }

 private:
  void add_queries(std::size_t rows) const noexcept {
    queries_.count.fetch_add(rows, std::memory_order_relaxed);
  }

  nn::SequenceClassifier model_;
  mobility::EncodingSpec spec_;
  PrivacyLayer privacy_;
  DeploymentSite site_;
  std::uint32_t model_version_ = 0;
  // Atomic: serving threads and scoring workers add to it concurrently,
  // and a publisher snapshots it (DeploymentRegistry::publish). Mutable:
  // the const read paths spend budget too. Deployments are movable so they
  // can live in containers and be handed between tiers; a move (not
  // thread-safe) copies the count, since std::atomic itself cannot move.
  struct QueryCount {
    mutable std::atomic<std::size_t> count{0};
    QueryCount() = default;
    QueryCount(QueryCount&& other) noexcept
        : count(other.count.load(std::memory_order_relaxed)) {}
    QueryCount& operator=(QueryCount&& other) noexcept {
      count.store(other.count.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  } queries_;
};

}  // namespace pelican::core
