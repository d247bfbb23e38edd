// DeploymentRegistry: the serving engine's ownership layer for per-user
// deployments (the paper's cloud-hosted deployment mode, Section V-A3, at
// many-user scale).
//
// The registry maps user ids to deployment SLOTS across N independently
// locked shards. A shard's lock protects only the map — it is held for a
// hash lookup, never for model work. All model access goes through
// DeploymentHandle, a stable reference to one user's slot. The slot's one
// lock, ptr_mutex, guards the shared_ptr<DeployedModel> itself and is held
// only for pointer copies/swaps (nanoseconds), never across model work.
//
// Serving takes no lock at all around the model: predictions and queries
// run the model's const inference path (nn/layer.hpp), which writes only
// its own outputs, and count queries on an atomic. So any number of
// threads may serve one user at once, including several chunks of that
// user in one scheduler drain.
//
// Model updates (the paper's Section V-A4 re-personalize-and-redeploy loop)
// therefore never stall serving: publish() builds the replacement model
// entirely off-lock — reading it out of the store::ModelStore is the
// expensive step — and installs it with a pointer swap under ptr_mutex. An
// in-flight forward keeps the old model alive through its shared_ptr and
// finishes on a consistent model; the next request picks up the new one.
// Other users, even on the same shard, never observe the update at all.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "core/cloud.hpp"
#include "core/service.hpp"
#include "store/model_store.hpp"

namespace pelican::serve {

/// A stable reference to one user's deployment slot. Handles stay valid
/// across publish()/swap_model()/re-deploy() for the same user (the slot is
/// reused); they outlive even erase() — an erased slot keeps answering
/// through existing handles until the last one drops.
class DeploymentHandle {
 public:
  DeploymentHandle() = default;  ///< empty handle; operator bool is false

  [[nodiscard]] explicit operator bool() const noexcept {
    return slot_ != nullptr;
  }

  /// Runs `fn(DeployedModel&)` on a snapshot of the current model (a
  /// concurrent publish cannot swap it out from under `fn`) and returns its
  /// result. No lock is held around `fn`, so calls for one user run side by
  /// side: `fn` may use only the deployment's read paths (query, predict).
  template <typename Fn>
  decltype(auto) with_model(Fn&& fn) const {
    require();
    return std::forward<Fn>(fn)(*slot_->load());
  }

  /// Shared-ownership snapshot of the current model: metadata reads
  /// (version, temperature, spec) and the const predict_top_k paths.
  [[nodiscard]] std::shared_ptr<const core::DeployedModel> snapshot() const {
    require();
    return slot_->load();
  }

  /// Installs `next` as this deployment's model with an atomic pointer
  /// swap: an in-flight forward finishes on the old model (kept alive by
  /// its snapshot) while later requests see `next`. Returns the model that
  /// was replaced.
  std::shared_ptr<core::DeployedModel> publish(
      std::shared_ptr<core::DeployedModel> next) const {
    require();
    if (next == nullptr) {
      throw std::invalid_argument("DeploymentHandle: cannot publish null");
    }
    return slot_->exchange(std::move(next));
  }

 private:
  friend class DeploymentRegistry;

  struct Slot {
    mutable Mutex ptr_mutex;
    std::shared_ptr<core::DeployedModel> model PELICAN_GUARDED_BY(ptr_mutex);

    [[nodiscard]] std::shared_ptr<core::DeployedModel> load() const {
      const MutexLock lock(ptr_mutex);
      return model;
    }
    std::shared_ptr<core::DeployedModel> exchange(
        std::shared_ptr<core::DeployedModel> next) {
      const MutexLock lock(ptr_mutex);
      std::swap(model, next);
      return next;  // the previous model
    }
  };

  explicit DeploymentHandle(std::shared_ptr<Slot> slot)
      : slot_(std::move(slot)) {}

  void require() const {
    if (slot_ == nullptr) {
      throw std::logic_error("DeploymentHandle: empty handle");
    }
  }

  std::shared_ptr<Slot> slot_;
};

class DeploymentRegistry {
 public:
  /// `shards` independently locked partitions; more shards = less lock
  /// contention across users (diminishing past the worker count).
  explicit DeploymentRegistry(std::size_t shards = 16);

  DeploymentRegistry(const DeploymentRegistry&) = delete;
  DeploymentRegistry& operator=(const DeploymentRegistry&) = delete;

  /// Registers the deployment of `user_id` and returns its handle. When the
  /// user is already deployed, the replacement is installed into the
  /// existing slot (an atomic publish), so handles held elsewhere keep
  /// working and observe the new model — and the slot's cumulative query
  /// count is added to the incoming deployment's (the per-user attack
  /// budget survives re-deploys).
  DeploymentHandle deploy(std::uint32_t user_id, core::DeployedModel model);

  /// The handle of `user_id`'s deployment. Throws std::out_of_range when
  /// the user is not deployed — find_handle is the non-throwing variant.
  [[nodiscard]] DeploymentHandle handle(std::uint32_t user_id) const;

  /// Empty handle (operator bool false) when the user is not deployed.
  [[nodiscard]] DeploymentHandle find_handle(std::uint32_t user_id) const;

  /// Moves every model hosted by `cloud` into the registry (the serving
  /// engine subsumes CloudServer's single-map hosting). Returns the number
  /// of deployments adopted.
  std::size_t adopt_hosted(core::CloudServer& cloud);

  /// Binds the registry to the model store and scope that publish() reads
  /// replacement models from. Typically the cloud tier's store
  /// (CloudServer::shared_model_store()) with a scope the re-personalization
  /// pipeline writes to. Must be non-null.
  void attach_store(std::shared_ptr<const store::ModelStore> model_store,
                    std::string scope);

  /// Pelican model update (Section V-A4), stall-free. Reads version
  /// `version` of the user's model from the attached store (scope as set by
  /// attach_store, user_id as key) — deliberately OFF every serving lock,
  /// since deserializing/cloning a model is the expensive step — wraps it
  /// in a DeployedModel inheriting the current deployment's encoding spec,
  /// privacy layer, site, and cumulative query count, and installs it with
  /// an atomic pointer swap.
  ///
  /// Throws std::logic_error when no store is attached, std::out_of_range
  /// when the user is not deployed or the store has no such version.
  void publish(std::uint32_t user_id, std::uint32_t version);

  /// Replaces the model of an existing deployment with a directly supplied
  /// one (version tag 0 = unversioned; prefer publish(), which records
  /// which store version is live). Same atomicity as publish. Throws
  /// std::out_of_range when the user is not deployed.
  void swap_model(std::uint32_t user_id, nn::SequenceClassifier model);

  [[nodiscard]] bool contains(std::uint32_t user_id) const;

  /// Removes the deployment of `user_id`; returns false when absent.
  /// Outstanding handles to the erased slot remain usable (see
  /// DeploymentHandle) — erase only unlists the user.
  bool erase(std::uint32_t user_id);

  /// Total deployments across all shards (locks each shard in turn).
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard index of a user (exposed for tests and stats).
  [[nodiscard]] std::size_t shard_of(std::uint32_t user_id) const noexcept;

  /// All deployed user ids, sorted ascending (deterministic; locks each
  /// shard in turn, so the snapshot is per-shard consistent).
  [[nodiscard]] std::vector<std::uint32_t> user_ids() const;

  /// DeploymentHandle::with_model on `user_id`'s deployment; the shard
  /// lock is held just for the handle lookup. Throws std::out_of_range when
  /// the user is not deployed.
  template <typename Fn>
  decltype(auto) with_model(std::uint32_t user_id, Fn&& fn) const {
    return handle(user_id).with_model(std::forward<Fn>(fn));
  }

 private:
  /// Shared tail of publish/swap_model: wraps `model` in a DeployedModel
  /// inheriting the slot's spec, privacy layer, site, and cumulative query
  /// count, then installs it atomically.
  static void install_replacement(const DeploymentHandle& slot_handle,
                                  nn::SequenceClassifier model,
                                  std::uint32_t version);

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::uint32_t, std::shared_ptr<DeploymentHandle::Slot>>
        slots PELICAN_GUARDED_BY(mutex);
  };

  std::vector<Shard> shards_;

  mutable Mutex store_mutex_;
  std::shared_ptr<const store::ModelStore> store_
      PELICAN_GUARDED_BY(store_mutex_);
  std::string store_scope_ PELICAN_GUARDED_BY(store_mutex_);
};

}  // namespace pelican::serve
