// Acceptance (b): a publish routed through the router lands on the OWNING
// process only, becomes visible fleet-wide (every subsequent routed query,
// from any client, serves the new version), and under concurrent traffic
// there are zero torn reads — the publish_under_load pattern, one tier up.
//
// Client threads hammer the router for a target user (and a control user)
// while the main thread live-publishes alternating versions through the
// router; every routed response must match exactly version 1's or version
// 2's reference output for its window.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "router/router.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_spec;

TEST(RouterPublishTest, PublishIsFleetVisibleWithZeroTornReads) {
  constexpr std::uint32_t kUsers = 8;
  constexpr std::uint32_t kTarget = 0;
  constexpr std::uint32_t kControl = 1;

  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kUsers, /*versions=*/2);
  const auto fleet = rt::start_fleet(dir, /*processes=*/2);

  // Hedging off: a hedge deploys users on a second engine by design, and
  // the deployment count below asserts the publish was routed, not copied.
  RouterConfig config;
  config.hedge_delay_ms = -1.0;
  Router router(config);
  (void)router.add_backend(fleet[0]->address().to_string());
  (void)router.add_backend(fleet[1]->address().to_string());
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, /*version=*/1, tiny_spec(),
                  rt::temperature_of(user));
  }

  // Reference outputs per window for both versions of the target and for
  // the control user's v1.
  Rng rng(7);
  std::vector<mobility::Window> windows;
  std::vector<std::vector<std::uint16_t>> expect_v1, expect_v2, expect_ctl;
  {
    auto v1 = rt::reference_deployment(kTarget, 1);
    auto v2 = rt::reference_deployment(kTarget, 2);
    auto control = rt::reference_deployment(kControl, 1);
    for (std::size_t i = 0; i < 8; ++i) {
      windows.push_back(random_window(rng));
      expect_v1.push_back(v1.predict_top_k(windows.back(), 3));
      expect_v2.push_back(v2.predict_top_k(windows.back(), 3));
      expect_ctl.push_back(control.predict_top_k(windows.back(), 3));
    }
  }
  // The two versions must actually disagree somewhere, or "torn read"
  // would be unobservable.
  ASSERT_NE(expect_v1, expect_v2);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::atomic<std::size_t> control_wrong{0};
  std::atomic<std::size_t> served{0};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::size_t i = c;  // interleave windows across clients
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t idx = i++ % windows.size();
        std::vector<serve::PredictRequest> batch = {
            {kTarget, windows[idx], 3}, {kControl, windows[idx], 3}};
        const auto responses = router.serve(batch);
        if (responses[0].ok) {
          // Zero torn reads: the routed answer is exactly one consistent
          // version's output — and the version tag must agree with it.
          const bool is_v1 = responses[0].locations == expect_v1[idx] &&
                             responses[0].model_version == 1;
          const bool is_v2 = responses[0].locations == expect_v2[idx] &&
                             responses[0].model_version == 2;
          if (!is_v1 && !is_v2) torn.fetch_add(1);
          served.fetch_add(1);
        }
        if (responses[1].ok && responses[1].locations != expect_ctl[idx]) {
          control_wrong.fetch_add(1);
        }
      }
    });
  }

  // Live-publish alternating versions through the router while traffic is
  // in flight, ending on v2. Each round waits for a few served responses
  // before the next publish, so traffic provably interleaves the updates
  // regardless of scheduling (on a loaded machine all five publishes can
  // otherwise finish before any client completes one round trip).
  for (std::uint32_t round = 0; round < 5; ++round) {
    router.publish(kTarget, round % 2 == 0 ? 2u : 1u);
    const std::size_t target_count = served.load() + 5;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (served.load() < target_count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop.store(true);
  for (auto& client : clients) client.join();

  EXPECT_EQ(torn.load(), 0u)
      << "every routed response must match one consistent model version";
  EXPECT_EQ(control_wrong.load(), 0u)
      << "publishes for one user must never change another user's answers";
  EXPECT_GT(served.load(), 0u);

  // Fleet-wide visibility: after the final publish, EVERY subsequent
  // routed query — whichever client, whichever window — serves v2.
  for (std::size_t idx = 0; idx < windows.size(); ++idx) {
    const auto after = router.serve(std::vector<serve::PredictRequest>{
        {kTarget, windows[idx], 3}});
    ASSERT_TRUE(after[0].ok);
    EXPECT_EQ(after[0].model_version, 2u);
    EXPECT_EQ(after[0].locations, expect_v2[idx]);
  }

  // The publish was routed, not broadcast: exactly one engine hosts the
  // target (deployments total = kUsers across the fleet, none doubled).
  std::uint64_t deployments = 0;
  for (const auto& [address, health] : router.fleet_health()) {
    deployments += health.deployments;
  }
  EXPECT_EQ(deployments, kUsers);
}

}  // namespace
}  // namespace pelican::router
