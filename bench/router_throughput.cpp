// Throughput of the routed multi-process fleet vs the single-process
// engine: requests/sec through Router -> wire -> N pelican_engined
// processes, swept over fleet size, against the same workload served by an
// in-process DeploymentRegistry + BatchScheduler.
//
// What this measures: the cost of the routing tier (framing, sockets, one
// hop) and what it buys (N registries, N schedulers, N process heaps — the
// scaling unit of the ROADMAP's cross-process sharding). On one host the
// engines share the physical cores with each other and the router, so the
// single-host speedup from process count is bounded; the interesting
// numbers are the wire overhead at fleet=1 and the trend as processes
// increase (which becomes real scaling the moment the addresses point at
// other hosts).
//
// Honors PELICAN_BENCH_SCALE (tiny | default | paper) and writes
// machine-readable results via harness/results.hpp.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "harness/results.hpp"
#include "nn/model.hpp"
#include "router/local_fleet.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"
#include "store/model_store.hpp"

using namespace pelican;

namespace {

struct RouterScale {
  std::string name;
  std::size_t num_locations;
  std::size_t hidden_dim;
  std::size_t users;
  std::size_t requests;
};

RouterScale scale_from_env() {
  const char* env = std::getenv("PELICAN_BENCH_SCALE");
  const std::string name = env == nullptr ? "default" : env;
  if (name == "tiny") return {"tiny", 16, 16, 32, 2000};
  if (name == "paper") return {"paper", 150, 64, 512, 50000};
  return {"default", 40, 32, 256, 20000};
}

mobility::Window random_window(Rng& rng, std::size_t num_locations) {
  mobility::Window window;
  for (auto& step : window.steps) {
    step.entry_bin = static_cast<std::uint8_t>(rng.below(mobility::kEntryBins));
    step.duration_bin =
        static_cast<std::uint8_t>(rng.below(mobility::kDurationBins));
    step.day_of_week =
        static_cast<std::uint8_t>(rng.below(mobility::kDaysPerWeek));
    step.location = static_cast<std::uint16_t>(rng.below(num_locations));
  }
  window.next_location = static_cast<std::uint16_t>(rng.below(num_locations));
  return window;
}

/// Serves `requests` through `serve_fn` from `clients` threads, each
/// forwarding its strided slice as batches of `batch`. Returns wall
/// seconds.
template <typename ServeFn>
double drive(const std::vector<serve::PredictRequest>& requests,
             std::size_t clients, std::size_t batch, ServeFn&& serve_fn) {
  const Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<serve::PredictRequest> slice;
      slice.reserve(batch);
      for (std::size_t i = c; i < requests.size(); i += clients) {
        slice.push_back(requests[i]);
        if (slice.size() == batch) {
          serve_fn(slice);
          slice.clear();
        }
      }
      if (!slice.empty()) serve_fn(slice);
    });
  }
  for (auto& thread : threads) thread.join();
  return watch.seconds();
}

/// Keeps the first response that was not ok, so a failed run can say
/// which read failed and how once the clients have stopped.
class FirstFailure {
 public:
  void check(const std::vector<serve::PredictResponse>& responses) {
    for (const auto& response : responses) {
      if (response.ok) continue;
      const MutexLock lock(mutex_);
      if (!first_) first_ = response;
      return;
    }
  }

  /// Prints the failure to stderr; false when every read was ok.
  bool report(const std::string& mode) {
    const MutexLock lock(mutex_);
    if (!first_) return false;
    std::cerr << mode << ": read not ok: user " << first_->user_id
              << ", ok " << first_->ok << ", rejected " << first_->rejected;
    return true;
  }

  [[nodiscard]] std::uint32_t user() {
    const MutexLock lock(mutex_);
    return first_ ? first_->user_id : 0;
  }

 private:
  Mutex mutex_;
  std::optional<serve::PredictResponse> first_ PELICAN_GUARDED_BY(mutex_);
};

/// $PELICAN_STATSZ if set, else the ../tools/pelican_statsz sibling of the
/// calling binary — the same resolution LocalFleet uses for pelican_engined.
std::string statsz_path() {
  if (const char* env = std::getenv("PELICAN_STATSZ")) return env;
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const auto candidate =
        self.parent_path().parent_path() / "tools" / "pelican_statsz";
    if (std::filesystem::exists(candidate)) return candidate.string();
  }
  return {};
}

/// Scrapes the live fleet with pelican_statsz --json into the bench results
/// directory (the snapshot CI uploads next to the bench JSON). The router's
/// own self-report — hedge/retry/quarantine counters, router-side stage
/// histograms — rides along as a serialized metrics frame, merged by statsz
/// as the pseudo-engine "router". Best-effort: a missing binary or failed
/// scrape warns, never fails the bench.
void snapshot_fleet_metrics(const std::vector<std::string>& addresses,
                            router::Router& front_door) {
  const std::string statsz = statsz_path();
  if (statsz.empty()) {
    std::cerr << "warning: pelican_statsz not found (set PELICAN_STATSZ); "
                 "skipping fleet metrics snapshot\n";
    return;
  }
  const std::filesystem::path dir = bench::bench_results_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path router_report = dir / "router_report.bin";
  {
    const auto frame = router::encode_metrics_reply(front_door.self_report());
    std::ofstream file(router_report, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
  }
  const std::filesystem::path out = dir / "statsz_snapshot.json";
  std::string command = statsz + " --json --out " + out.string() +
                        " --router-file " + router_report.string();
  for (const auto& address : addresses) command += " --engine " + address;
  if (std::system(command.c_str()) != 0) {
    std::cerr << "warning: pelican_statsz snapshot failed\n";
    return;
  }
  std::cout << "statsz snapshot: " << out.string() << "\n";
}

}  // namespace

int main() {
  const RouterScale scale = scale_from_env();
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t clients = 4;
  const std::size_t client_batch = 64;

  print_banner(std::cout,
               "router_throughput: multi-process fleet vs single process");
  std::cout << "scale " << scale.name << ": " << scale.users << " users, "
            << scale.requests << " requests, " << scale.num_locations
            << " locations, hidden " << scale.hidden_dim << ", " << cores
            << " cores, " << clients << " client threads\n";

  const mobility::EncodingSpec spec{mobility::SpatialLevel::kBuilding,
                                    scale.num_locations};
  Rng rng(2026);
  const nn::SequenceClassifier model = nn::make_one_layer_lstm(
      spec.input_dim(), scale.hidden_dim, scale.num_locations,
      /*dropout_rate=*/0.0, rng);

  std::vector<serve::PredictRequest> requests;
  requests.reserve(scale.requests);
  for (std::size_t i = 0; i < scale.requests; ++i) {
    requests.push_back({static_cast<std::uint32_t>(rng.below(scale.users)),
                        random_window(rng, scale.num_locations), 3});
  }

  Table table({"mode", "processes", "req/s", "vs single-proc", "router p50 ms",
               "router p99 ms", "engine mean batch"});

  // --- Single-process baseline: the PR 2/3 engine, no wire ---------------
  double baseline_rps = 0.0;
  {
    serve::DeploymentRegistry registry(/*shards=*/16);
    for (std::uint32_t user = 0; user < scale.users; ++user) {
      registry.deploy(user,
                      core::DeployedModel(model.clone(), spec,
                                          core::PrivacyLayer(1.0),
                                          core::DeploymentSite::kInCloud,
                                          /*model_version=*/1));
    }
    serve::BatchScheduler scheduler(
        registry, {.max_batch = 32,
                   .max_delay = std::chrono::microseconds(2000)});
    FirstFailure failure;
    const double seconds =
        drive(requests, clients, client_batch,
              [&](const std::vector<serve::PredictRequest>& slice) {
                failure.check(scheduler.serve(slice));
              });
    if (failure.report("engine (in-process)")) {
      std::cerr << "\n";
      return 1;
    }
    baseline_rps = static_cast<double>(requests.size()) / seconds;
    const auto snap = scheduler.stats().snapshot();
    table.add_row({"engine (in-process)", "1", Table::num(baseline_rps, 0),
                   "1.0x", "-", "-", Table::num(snap.mean_batch_size, 2)});
  }

  // --- Fleet sweep: 1/2/4 engine processes behind the router -------------
  const std::filesystem::path fleet_root =
      std::filesystem::temp_directory_path() /
      ("pelican_router_bench_" + std::to_string(::getpid()));
  {
    // One store shared by every fleet size: per-user copies of the model.
    store::ModelStore store(
        std::make_unique<store::FilesystemBackend>(fleet_root / "store"));
    for (std::uint32_t user = 0; user < scale.users; ++user) {
      store.put({"personal", user, 1}, model.clone());
    }
  }

  for (const std::size_t processes : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
    router::LocalFleetConfig fleet_config;
    fleet_config.root = fleet_root;
    fleet_config.processes = processes;
    fleet_config.extra_args = {"--max-batch", "32", "--max-delay-us", "2000",
                               "--shards", "16"};
    router::LocalFleet fleet(fleet_config);

    router::Router front_door;
    for (const auto& address : fleet.addresses()) {
      (void)front_door.add_backend(address);
    }
    for (std::uint32_t user = 0; user < scale.users; ++user) {
      front_door.deploy(user, 1, spec, /*temperature=*/1.0);
    }

    FirstFailure failure;
    const double seconds =
        drive(requests, clients, client_batch,
              [&](const std::vector<serve::PredictRequest>& slice) {
                failure.check(front_door.serve(slice));
              });
    if (failure.report("router fleet of " + std::to_string(processes))) {
      // Returning (not exiting) lets LocalFleet reap its engines.
      const std::uint32_t user = failure.user();
      std::cerr << ", owner "
                << (front_door.live_backends().empty()
                        ? std::string("(none)")
                        : front_door.owner_of(user));
      for (const char* counter :
           {"router_request_timeouts_total", "router_quarantines_total",
            "router_unquarantines_total", "router_hedges_total",
            "router_retry_rounds_total"}) {
        std::cerr << ", " << counter << " "
                  << front_door.metrics().counter(counter).value();
      }
      std::cerr << "\n";
      std::error_code ec;
      std::filesystem::remove_all(fleet_root, ec);
      return 1;
    }
    const double rps = static_cast<double>(requests.size()) / seconds;

    const auto router_snap =
        serve::ServerStats(front_door.metrics().state(),
                           serve::kRouterMetricPrefix)
            .snapshot();
    const auto fleet_snap = front_door.fleet_metrics().stats;
    table.add_row({"router fleet", std::to_string(processes),
                   Table::num(rps, 0),
                   Table::num(rps / baseline_rps, 2) + "x",
                   Table::num(router_snap.p50_latency_ms, 3),
                   Table::num(router_snap.p99_latency_ms, 3),
                   Table::num(fleet_snap.mean_batch_size, 2)});

    if (processes == 4) {
      // Largest fleet, still live and full of stage histograms + traces:
      // scrape it the way an operator would.
      snapshot_fleet_metrics(fleet.addresses(), front_door);
    }

    front_door.drain_fleet();
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (fleet.reap(i) != 0) {
        std::cerr << "warning: engine " << i << " did not drain cleanly\n";
      }
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(fleet_root, ec);

  std::cout << table;
  bench::write_bench_json("router_throughput", table);
  return 0;
}
