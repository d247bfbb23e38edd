// Serving cluster: thousands of users querying personalized deployments
// concurrently through the pelican_serve engine — including a live model
// update published mid-traffic.
//
//  1. Train one small general model in the "cloud" (weights are shared —
//     per-user fine-tuning does not change serving cost, so for a serving
//     demo every user deploys a clone with their own privacy temperature).
//  2. Register ~1000 per-user deployments in a sharded DeploymentRegistry,
//     adopting any models the CloudServer already hosts.
//  3. Run concurrent client threads submitting prediction requests to the
//     BatchScheduler, which coalesces same-user requests into batched LSTM
//     forwards drained across the thread pool.
//  4. While a second traffic wave is in flight, retrain and live-publish a
//     v2 model for 10% of users through the shared store::ModelStore —
//     DeploymentRegistry::publish installs each without stalling serving —
//     and print served-version counts before/after.
//  5. Print the serving counters (serve::ServerStats, a view over the
//     scheduler's metrics registry): throughput, batch-size histogram,
//     p50/p99 latency, and admission-control counters.
//  6. Go multi-process: spawn a 3-process pelican_engined fleet over Unix
//     sockets (router::LocalFleet), publish per-user models into the
//     fleet-shared filesystem store, route traffic through the Router
//     front door, live-publish v2 for one user through it, and print the
//     merged fleet stats. (Skipped with a note if the pelican_engined
//     binary is not built.)
//
// Build & run:  ./build/examples/serving_cluster
#include <unistd.h>

#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/pelican.hpp"
#include "mobility/persona.hpp"
#include "mobility/simulator.hpp"
#include "models/window_dataset.hpp"
#include "router/local_fleet.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"

using namespace pelican;

namespace {

/// One wave of concurrent client traffic; returns responses-served counts
/// keyed by the model version that answered.
std::map<std::uint32_t, std::size_t> run_wave(
    serve::BatchScheduler& scheduler,
    const std::vector<mobility::Window>& query_windows,
    std::size_t num_users, std::size_t clients,
    std::size_t requests_per_client, std::uint64_t seed_base) {
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  std::vector<std::map<std::uint32_t, std::size_t>> per_client(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      Rng client_rng(seed_base + c);
      std::vector<std::future<serve::PredictResponse>> futures;
      futures.reserve(requests_per_client);
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        serve::PredictRequest request;
        request.user_id =
            static_cast<std::uint32_t>(client_rng.below(num_users));
        request.window =
            query_windows[client_rng.below(query_windows.size())];
        request.k = 3;
        futures.push_back(scheduler.submit(request));
      }
      for (auto& future : futures) {
        const auto response = future.get();
        if (response.ok) ++per_client[c][response.model_version];
      }
    });
  }
  for (auto& thread : client_threads) thread.join();

  std::map<std::uint32_t, std::size_t> by_version;
  for (const auto& counts : per_client) {
    for (const auto& [version, count] : counts) by_version[version] += count;
  }
  return by_version;
}

void print_versions(const char* label,
                    const std::map<std::uint32_t, std::size_t>& by_version) {
  std::cout << label;
  for (const auto& [version, count] : by_version) {
    std::cout << "  v" << version << ": " << count;
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  // --- 1. A tiny campus and one cloud-trained general model ----------
  mobility::CampusConfig campus_config;
  campus_config.buildings = 16;
  campus_config.mean_aps_per_building = 4;
  const auto campus = mobility::Campus::generate(campus_config, /*seed=*/17);
  const auto spec = mobility::EncodingSpec::for_campus(
      campus, mobility::SpatialLevel::kBuilding);

  Rng rng(17);
  const mobility::SimulationConfig sim{.weeks = 4};
  std::vector<mobility::Window> contributor_windows;
  std::vector<mobility::Window> query_windows;
  for (std::uint32_t u = 0; u < 4; ++u) {
    Rng persona_rng = rng.fork(u + 1);
    const auto persona = mobility::generate_persona(
        campus, u, mobility::PersonaConfig{}, persona_rng);
    const auto trajectory =
        mobility::simulate(campus, persona, sim, rng.fork(100 + u));
    const auto windows =
        mobility::make_windows(trajectory, mobility::SpatialLevel::kBuilding);
    contributor_windows.insert(contributor_windows.end(), windows.begin(),
                               windows.end());
    query_windows.insert(query_windows.end(), windows.begin(), windows.end());
  }

  core::CloudServer cloud;
  models::GeneralModelConfig general_config;
  general_config.hidden_dim = 16;
  general_config.train.epochs = 3;
  general_config.train.lr = 2e-3;
  const models::WindowDataset contributors(contributor_windows, spec);
  const auto version = cloud.train_general(contributors, general_config);
  std::cout << "cloud trained general model v" << version << " in "
            << Table::num(cloud.training_cost(version).wall_seconds, 2)
            << " s\n";

  // --- 2. A registry of per-user deployments -------------------------
  const std::size_t num_users = 1000;
  serve::DeploymentRegistry registry(/*shards=*/32);

  // A few users are already hosted in the cloud tier; the serving engine
  // subsumes that hosting.
  for (std::uint32_t user = 0; user < 8; ++user) {
    cloud.host_personalized(
        user, core::DeployedModel(cloud.download_general(version), spec,
                                  core::PrivacyLayer(1.0),
                                  core::DeploymentSite::kInCloud,
                                  /*model_version=*/version));
  }
  const std::size_t adopted = registry.adopt_hosted(cloud);

  for (std::uint32_t user = static_cast<std::uint32_t>(adopted);
       user < num_users; ++user) {
    // Every user picks their own (private) temperature; serving quality is
    // unaffected by construction, so the engine never needs to know it.
    const double temperature = (user % 2 == 0)
                                   ? 1.0
                                   : core::PrivacyLayer::kStrongTemperature;
    registry.deploy(user, core::DeployedModel(
                              cloud.download_general(version), spec,
                              core::PrivacyLayer(temperature),
                              core::DeploymentSite::kInCloud,
                              /*model_version=*/version));
  }
  std::cout << "registry: " << registry.size() << " deployments ("
            << adopted << " adopted from the cloud tier) across "
            << registry.shard_count() << " shards\n";

  // The registry pulls model updates from the cloud's store, where the
  // re-personalization pipeline publishes per-user versions.
  registry.attach_store(cloud.shared_model_store(), "personal");

  // --- 3. Wave 1: concurrent clients against the batch scheduler -----
  serve::BatchScheduler scheduler(
      registry, {.max_batch = 64,
                 .max_delay = std::chrono::microseconds(1000)});

  const std::size_t clients = 4;
  const std::size_t requests_per_client = 2000;
  std::cout << "serving " << 2 * clients * requests_per_client
            << " requests from " << clients
            << " client threads in two waves...\n";

  const Stopwatch watch;
  const auto wave1 =
      run_wave(scheduler, query_windows, num_users, clients,
               requests_per_client, /*seed_base=*/9000);

  // --- 4. Wave 2 with a live model update mid-traffic ----------------
  // "Retrain" in the cloud (a v2 general model on the same contributors),
  // stage a per-user copy in the store for 10% of users, and publish each
  // while wave 2 traffic is being served. publish() builds the replacement
  // off-lock and installs it with a pointer swap, so neither the updated
  // user nor shard neighbors stall.
  const auto v2 = cloud.train_general(contributors, general_config);
  std::thread updater([&] {
    for (std::uint32_t user = 0; user < num_users; user += 10) {
      cloud.model_store().put({"personal", user, v2},
                              cloud.download_general(v2));
      registry.publish(user, v2);
    }
  });
  const auto wave2 =
      run_wave(scheduler, query_windows, num_users, clients,
               requests_per_client, /*seed_base=*/9500);
  updater.join();
  const double seconds = watch.seconds();

  print_versions("served versions, wave 1 (pre-update): ", wave1);
  print_versions("served versions, wave 2 (live update): ", wave2);

  std::size_t total_answered = 0;
  for (const auto& [v, count] : wave1) total_answered += count;
  for (const auto& [v, count] : wave2) total_answered += count;

  // --- 5. The measurement surface -------------------------------------
  const auto snap = scheduler.stats().snapshot();
  print_banner(std::cout, "serving cluster stats");
  Table table({"metric", "value"});
  table.add_row({"requests served", std::to_string(snap.requests_served)});
  table.add_row({"requests answered ok", std::to_string(total_answered)});
  table.add_row({"requests/sec",
                 Table::num(static_cast<double>(total_answered) / seconds, 0)});
  table.add_row({"batched forwards", std::to_string(snap.batches_run)});
  table.add_row({"mean batch size", Table::num(snap.mean_batch_size, 2)});
  table.add_row({"max batch size", std::to_string(snap.max_batch_size)});
  table.add_row({"peak queue depth", std::to_string(snap.peak_queue_depth)});
  table.add_row({"shed by admission", std::to_string(snap.requests_shed)});
  table.add_row({"p50 latency ms", Table::num(snap.p50_latency_ms, 3)});
  table.add_row({"p99 latency ms", Table::num(snap.p99_latency_ms, 3)});
  std::cout << table;

  std::string histogram;
  for (std::size_t b = 0; b < snap.batch_size_log2_histogram.size(); ++b) {
    if (b > 0) histogram += "  ";
    histogram += ">=" + std::to_string(std::size_t{1} << b) + ":" +
                 std::to_string(snap.batch_size_log2_histogram[b]);
  }
  std::cout << "batch-size histogram (log2 buckets): " << histogram << "\n";

  // --- 6. The same service as a 3-process fleet ------------------------
  // Everything above ran in ONE process. The router tier runs the engine
  // as N pelican_engined processes behind one front door: models flow
  // through a fleet-shared filesystem store, the Router partitions users
  // across processes by consistent hashing, and a publish is routed to the
  // owning process only.
  if (router::LocalFleet::default_engined_path().empty()) {
    std::cout << "\n(pelican_engined not built — skipping the multi-process "
                 "fleet demo; build the tools/ targets to see it)\n";
    return 0;
  }
  print_banner(std::cout, "multi-process fleet (3 x pelican_engined)");
  const std::filesystem::path fleet_root =
      std::filesystem::temp_directory_path() /
      ("pelican_cluster_" + std::to_string(::getpid()));
  {
    constexpr std::uint32_t kFleetUsers = 12;
    router::LocalFleetConfig fleet_config;
    fleet_config.root = fleet_root;
    fleet_config.processes = 3;
    router::LocalFleet fleet(fleet_config);

    // Publish per-user models into the fleet-shared store; engines pull
    // them by (scope, user, version) key at deploy time.
    {
      store::ModelStore fleet_store(
          std::make_unique<store::FilesystemBackend>(fleet.store_root()));
      for (std::uint32_t user = 0; user < kFleetUsers; ++user) {
        fleet_store.put({"personal", user, 1}, cloud.download_general(version));
        fleet_store.put({"personal", user, 2}, cloud.download_general(v2));
      }
    }

    router::Router front_door;
    for (const auto& address : fleet.addresses()) {
      (void)front_door.add_backend(address);
    }
    std::map<std::string, std::size_t> placement;
    for (std::uint32_t user = 0; user < kFleetUsers; ++user) {
      front_door.deploy(user, 1, spec, /*temperature=*/1.0);
      ++placement[front_door.owner_of(user)];
    }
    std::cout << "placement of " << kFleetUsers << " users:";
    for (const auto& [address, count] : placement) {
      std::cout << "  " << count << " on ..."
                << address.substr(address.size() > 12 ? address.size() - 12
                                                      : 0);
    }
    std::cout << "\n";

    // Routed traffic, with a live publish through the front door.
    Rng fleet_rng(77);
    std::vector<serve::PredictRequest> routed_requests;
    for (std::size_t i = 0; i < 600; ++i) {
      routed_requests.push_back(
          {static_cast<std::uint32_t>(fleet_rng.below(kFleetUsers)),
           query_windows[fleet_rng.below(query_windows.size())], 3});
    }
    auto first = front_door.serve(
        std::span<const serve::PredictRequest>(routed_requests).first(300));
    front_door.publish(0, 2);  // routed to user 0's owning process only
    auto second = front_door.serve(
        std::span<const serve::PredictRequest>(routed_requests).last(300));

    std::map<std::uint32_t, std::size_t> fleet_versions;
    for (const auto& response : first) {
      if (response.ok) ++fleet_versions[response.model_version];
    }
    for (const auto& response : second) {
      if (response.ok) ++fleet_versions[response.model_version];
    }
    std::cout << "served versions through the router:";
    for (const auto& [served_version, count] : fleet_versions) {
      std::cout << "  v" << served_version << ": " << count;
    }
    std::cout << "\n";

    const auto fleet_snap = front_door.fleet_metrics().stats;
    std::cout << "fleet stats (merged across 3 processes): "
              << fleet_snap.requests_served << " served, mean batch "
              << Table::num(fleet_snap.mean_batch_size, 2) << ", engine p99 "
              << Table::num(fleet_snap.p99_latency_ms, 3) << " ms\n";

    front_door.drain_fleet();
    for (std::size_t i = 0; i < fleet.size(); ++i) (void)fleet.reap(i);
    std::cout << "fleet drained\n";
  }
  std::error_code fleet_ec;
  std::filesystem::remove_all(fleet_root, fleet_ec);
  return 0;
}
