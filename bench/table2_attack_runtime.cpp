// Table II — runtime of attack methods.
//
// Paper values (100 users, building level): brute force 82.18 h, gradient
// descent 6.27 h, time-based 0.68 h — i.e. brute force is >120x the
// time-based method and gradient descent ~9x. Absolute times depend on
// hardware and scale; the *ratios* are the reproduction target.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "harness/attack_runner.hpp"
#include "harness/results.hpp"
#include "models/window_dataset.hpp"

namespace {

/// This process's peak resident set (VmHWM in /proc/self/status) in MB, or
/// 0 where the file does not exist.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the file gives kB
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace pelican;
  using namespace pelican::bench;

  Pipeline pipeline(ScaleConfig::from_env(), mobility::SpatialLevel::kBuilding);
  print_banner(std::cout, "Table II: runtime of attack methods (A1, building level)");
  print_scale_banner(pipeline);

  // All three methods attack the same windows of the same users.
  const std::size_t runtime_users =
      std::min<std::size_t>(2, pipeline.users().size());
  const std::size_t runtime_windows = 3;

  double seconds_per_window[3] = {0.0, 0.0, 0.0};
  std::size_t attacked[3] = {0, 0, 0};

  for (std::size_t u = 0; u < runtime_users; ++u) {
    auto& user = pipeline.users()[u];
    core::DeployedModel deployment(user.model.clone(), pipeline.spec(),
                                   core::PrivacyLayer(1.0),
                                   core::DeploymentSite::kOnDevice);
    const auto prior = attack::make_prior(attack::PriorKind::kTrue,
                                          user.train_windows, deployment,
                                          user.test_windows);
    attack::InversionConfig config;
    config.adversary = attack::Adversary::kA1;
    config.ks = {3};
    config.max_windows = runtime_windows;

    config.method = attack::AttackMethod::kBruteForce;
    const auto brute = attack::run_inversion(
        deployment, user.train_windows, user.test_windows, prior, config);
    seconds_per_window[0] += brute.attack_seconds;
    attacked[0] += brute.windows_attacked;

    attack::GradientAttackConfig gradient_config;
    const auto gradient = attack::run_gradient_inversion(
        user.model, pipeline.spec(), user.train_windows, prior, config,
        gradient_config);
    seconds_per_window[1] += gradient.attack_seconds;
    attacked[1] += gradient.windows_attacked;

    config.method = attack::AttackMethod::kTimeBased;
    const auto time_based = attack::run_inversion(
        deployment, user.train_windows, user.test_windows, prior, config);
    seconds_per_window[2] += time_based.attack_seconds;
    attacked[2] += time_based.windows_attacked;
  }

  for (int m = 0; m < 3; ++m) {
    seconds_per_window[m] /= static_cast<double>(attacked[m]);
  }
  const double tb = seconds_per_window[2];

  Table table({"method", "sec/window", "ratio vs time-based",
               "paper hours (100 users)", "paper ratio"});
  table.add_row({"brute force", Table::num(seconds_per_window[0], 4),
                 Table::num(seconds_per_window[0] / tb, 1) + "x", "82.18",
                 "120.9x"});
  table.add_row({"gradient descent", Table::num(seconds_per_window[1], 4),
                 Table::num(seconds_per_window[1] / tb, 1) + "x", "6.27",
                 "9.2x"});
  table.add_row({"time-based", Table::num(seconds_per_window[2], 4), "1.0x",
                 "0.68", "1.0x"});
  std::cout << table;
  bench::write_bench_json("table2_attack_runtime", table);

  const bool shape_holds = seconds_per_window[0] > 20.0 * tb &&
                           seconds_per_window[1] > tb;
  std::cout << "shape (BF >> GD > TB): " << (shape_holds ? "HOLDS" : "DIFFERS")
            << "\n";

  // ROADMAP "Attack parallelism": brute-force candidate enumeration now
  // fills per-entry-bin slices across ThreadPool::global(). Measure the
  // enumeration speedup against the serial reference on the same window.
  {
    auto& user = pipeline.users()[0];
    std::vector<std::uint16_t> all_locations(pipeline.spec().num_locations);
    for (std::size_t i = 0; i < all_locations.size(); ++i) {
      all_locations[i] = static_cast<std::uint16_t>(i);
    }
    const mobility::Window& window = user.train_windows.front();
    const int reps = 30;
    std::size_t candidates = 0;
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      candidates = attack::enumerate_candidates(
                       attack::AttackMethod::kBruteForce,
                       attack::Adversary::kA1, window, all_locations, {},
                       /*parallel=*/false)
                       .size();
    }
    const double serial_ms = watch.milliseconds() / reps;
    watch.reset();
    for (int r = 0; r < reps; ++r) {
      candidates = attack::enumerate_candidates(
                       attack::AttackMethod::kBruteForce,
                       attack::Adversary::kA1, window, all_locations, {},
                       /*parallel=*/true)
                       .size();
    }
    const double parallel_ms = watch.milliseconds() / reps;

    Table enum_table({"candidates", "threads", "serial ms", "parallel ms",
                      "speedup"});
    enum_table.add_row(
        {std::to_string(candidates),
         std::to_string(std::thread::hardware_concurrency()),
         Table::num(serial_ms, 3), Table::num(parallel_ms, 3),
         Table::num(serial_ms / parallel_ms, 2) + "x"});
    print_banner(std::cout, "brute-force enumeration parallelism");
    std::cout << enum_table;
    bench::write_bench_json("table2_enumeration_speedup", enum_table);
  }

  // ISSUE 4 ("Attack parallelism, phase 2"): candidate *scoring* fast
  // paths. Row 1 — sparse one-hot scoring vs the dense-encoded reference
  // it replaced (bit-identical scores, nnz-row input products). Row 2 —
  // serial vs pool-parallel scoring over per-worker DeployedModel replicas
  // (on a 1-core host this degenerates to ~1.0x; the thread count is in
  // the table so the trajectory artifact stays interpretable).
  {
    auto& user = pipeline.users()[0];
    core::DeployedModel deployment(user.model.clone(), pipeline.spec(),
                                   core::PrivacyLayer(1.0),
                                   core::DeploymentSite::kOnDevice);
    const auto prior = attack::make_prior(attack::PriorKind::kTrue,
                                          user.train_windows, deployment,
                                          user.test_windows);
    std::vector<std::uint16_t> all_locations(pipeline.spec().num_locations);
    for (std::size_t i = 0; i < all_locations.size(); ++i) {
      all_locations[i] = static_cast<std::uint16_t>(i);
    }
    const mobility::Window& window = user.train_windows.front();
    const auto candidates = attack::enumerate_candidates(
        attack::AttackMethod::kBruteForce, attack::Adversary::kA1, window,
        all_locations, prior);
    constexpr std::size_t kQueryBatch = 1024;

    // The pre-ISSUE-4 scoring loop: dense one-hot materialization and a
    // dense query per batch. Kept as the measured baseline.
    const auto dense_reference = [&] {
      const mobility::EncodingSpec& spec = deployment.spec();
      std::vector<double> scores(deployment.num_classes(), 0.0);
      for (std::size_t start = 0; start < candidates.size();
           start += kQueryBatch) {
        const std::size_t count =
            std::min(kQueryBatch, candidates.size() - start);
        nn::Sequence x(mobility::kWindowSteps,
                       nn::Matrix(count, spec.input_dim(), 0.0f));
        for (std::size_t i = 0; i < count; ++i) {
          models::encode_steps(candidates[start + i].steps, spec, x, i);
        }
        const nn::Matrix confidences = deployment.query(x);
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint16_t guess = candidates[start + i].guess;
          const double score =
              static_cast<double>(confidences(i, window.next_location)) *
              prior[guess];
          scores[guess] = std::max(scores[guess], score);
        }
      }
      return scores;
    };

    const int reps = 3;
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) (void)dense_reference();
    const double dense_ms = watch.milliseconds() / reps;
    watch.reset();
    for (int r = 0; r < reps; ++r) {
      (void)attack::score_candidates(deployment, candidates,
                                     window.next_location, prior,
                                     kQueryBatch);
    }
    const double sparse_ms = watch.milliseconds() / reps;

    const std::size_t pool_workers = ThreadPool::global().size();
    auto replicas = attack::make_scoring_replicas(
        deployment, std::max<std::size_t>(pool_workers, 1));
    watch.reset();
    for (int r = 0; r < reps; ++r) {
      (void)attack::score_candidates_parallel(deployment, candidates,
                                              window.next_location, prior,
                                              kQueryBatch, replicas);
    }
    const double parallel_ms = watch.milliseconds() / reps;

    Table score_table({"scoring path", "candidates", "threads", "ms/window",
                       "candidates/s", "speedup vs dense serial"});
    const auto row = [&](const char* name, double ms) {
      score_table.add_row(
          {name, std::to_string(candidates.size()),
           std::to_string(std::thread::hardware_concurrency()),
           Table::num(ms, 3),
           Table::num(static_cast<double>(candidates.size()) * 1e3 / ms, 0),
           Table::num(dense_ms / ms, 2) + "x"});
    };
    row("dense serial (pre-ISSUE-4)", dense_ms);
    row("sparse serial", sparse_ms);
    row("sparse parallel replicas", parallel_ms);
    print_banner(std::cout, "brute-force candidate scoring fast paths");
    std::cout << score_table;
    bench::write_bench_json("table2_scoring_speedup", score_table);
  }

  // The whole run's peak memory: training, every attack above, and the
  // brute-force candidate vectors (ROADMAP item 7 streams them).
  Table memory_table({"measure", "value"});
  memory_table.add_row({"peak RSS MB (VmHWM)", Table::num(peak_rss_mb(), 2)});
  print_banner(std::cout, "memory");
  std::cout << memory_table;
  bench::write_bench_json("table2_peak_rss", memory_table);
  return 0;
}
