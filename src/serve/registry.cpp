#include "serve/registry.hpp"

#include <algorithm>

namespace pelican::serve {

DeploymentRegistry::DeploymentRegistry(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

std::size_t DeploymentRegistry::shard_of(
    std::uint32_t user_id) const noexcept {
  // Fibonacci hash so both sequential and strided user ids spread evenly.
  const std::uint64_t mixed =
      static_cast<std::uint64_t>(user_id) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(mixed >> 32) % shards_.size();
}

DeploymentHandle DeploymentRegistry::deploy(std::uint32_t user_id,
                                            core::DeployedModel model) {
  auto deployed = std::make_shared<core::DeployedModel>(std::move(model));
  std::shared_ptr<DeploymentHandle::Slot> slot;
  {
    Shard& shard = shards_[shard_of(user_id)];
    const MutexLock lock(shard.mutex);
    auto& entry = shard.slots[user_id];
    if (entry == nullptr) {
      entry = std::make_shared<DeploymentHandle::Slot>();
      // The slot is not yet reachable by any other thread, but the model
      // field is guarded: install through the annotated lock (uncontended).
      const MutexLock ptr_lock(entry->ptr_mutex);
      entry->model = std::move(deployed);
      return DeploymentHandle(entry);
    }
    slot = entry;  // existing slot: install outside the shard lock
  }
  DeploymentHandle handle(std::move(slot));
  // Re-deploying an existing user: the per-user attack query budget is
  // cumulative across deployments (see DeployedModel::set_query_count), so
  // the slot's accumulated count is added to whatever the incoming
  // deployment already observed elsewhere (e.g. while hosted in the cloud
  // tier).
  deployed->set_query_count(deployed->query_count() +
                            handle.snapshot()->query_count());
  (void)handle.publish(std::move(deployed));
  return handle;
}

DeploymentHandle DeploymentRegistry::handle(std::uint32_t user_id) const {
  DeploymentHandle found = find_handle(user_id);
  if (!found) {
    throw std::out_of_range("DeploymentRegistry: user not deployed");
  }
  return found;
}

DeploymentHandle DeploymentRegistry::find_handle(
    std::uint32_t user_id) const {
  const Shard& shard = shards_[shard_of(user_id)];
  const MutexLock lock(shard.mutex);
  const auto it = shard.slots.find(user_id);
  if (it == shard.slots.end()) return {};
  return DeploymentHandle(it->second);
}

std::size_t DeploymentRegistry::adopt_hosted(core::CloudServer& cloud) {
  auto hosted = cloud.take_hosted();
  const std::size_t count = hosted.size();
  for (auto& [user_id, model] : hosted) {
    (void)deploy(user_id, std::move(model));
  }
  return count;
}

void DeploymentRegistry::attach_store(
    std::shared_ptr<const store::ModelStore> model_store, std::string scope) {
  if (model_store == nullptr) {
    throw std::invalid_argument(
        "DeploymentRegistry: attached store must be non-null");
  }
  const MutexLock lock(store_mutex_);
  store_ = std::move(model_store);
  store_scope_ = std::move(scope);
}

void DeploymentRegistry::publish(std::uint32_t user_id,
                                 std::uint32_t version) {
  std::shared_ptr<const store::ModelStore> model_store;
  std::string scope;
  {
    const MutexLock lock(store_mutex_);
    if (store_ == nullptr) {
      throw std::logic_error(
          "DeploymentRegistry::publish: no model store attached "
          "(call attach_store first)");
    }
    model_store = store_;
    scope = store_scope_;
  }

  // Shard lock held only for this lookup; the slot keeps the deployment
  // reachable without any registry lock from here on. The store get
  // (deserialize or clone) — the expensive step — also runs off every
  // serving lock, so serving proceeds throughout, including for this user.
  install_replacement(handle(user_id),
                      model_store->get({scope, user_id, version}), version);
}

void DeploymentRegistry::swap_model(std::uint32_t user_id,
                                    nn::SequenceClassifier model) {
  install_replacement(handle(user_id), std::move(model), /*version=*/0);
}

void DeploymentRegistry::install_replacement(
    const DeploymentHandle& slot_handle, nn::SequenceClassifier model,
    std::uint32_t version) {
  const std::shared_ptr<const core::DeployedModel> current =
      slot_handle.snapshot();
  auto next = std::make_shared<core::DeployedModel>(
      std::move(model), current->spec(), current->privacy(), current->site(),
      version);
  // The attack query budget is cumulative per user across model versions.
  // The count is snapshotted here; forwards in flight during the swap may
  // add their rows to the retiring model only — an undercount bounded by
  // the batches in flight for this user, on the conservative side for
  // privacy auditing.
  next->set_query_count(current->query_count());
  (void)slot_handle.publish(std::move(next));
}

bool DeploymentRegistry::contains(std::uint32_t user_id) const {
  const Shard& shard = shards_[shard_of(user_id)];
  const MutexLock lock(shard.mutex);
  return shard.slots.contains(user_id);
}

bool DeploymentRegistry::erase(std::uint32_t user_id) {
  Shard& shard = shards_[shard_of(user_id)];
  const MutexLock lock(shard.mutex);
  return shard.slots.erase(user_id) > 0;
}

std::size_t DeploymentRegistry::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const MutexLock lock(shard.mutex);
    total += shard.slots.size();
  }
  return total;
}

std::vector<std::uint32_t> DeploymentRegistry::user_ids() const {
  std::vector<std::uint32_t> ids;
  for (const Shard& shard : shards_) {
    const MutexLock lock(shard.mutex);
    for (const auto& [user_id, slot] : shard.slots) {
      ids.push_back(user_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace pelican::serve
