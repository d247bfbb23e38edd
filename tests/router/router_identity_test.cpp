// Acceptance (a): responses served THROUGH the router — wire encode, engine
// process loop, scheduler, wire decode — are bit-identical to direct
// ServingEngine calls for the same user/queries.
//
// The fleet here is two in-process EngineWorkers over Unix sockets (the
// full wire path without fork/exec); the reference is (1) a direct
// single-process DeploymentRegistry + BatchScheduler over identical
// deployments and (2) raw DeployedModel::predict_top_k calls.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/fault.hpp"
#include "router/router.hpp"
#include "router_support.hpp"
#include "serve/scheduler.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_spec;

TEST(RouterIdentityTest, RoutedResponsesMatchDirectEngineBitForBit) {
  constexpr std::uint32_t kStoredUsers = 64;
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kStoredUsers, /*versions=*/1);

  const auto fleet = rt::start_fleet(dir, /*processes=*/2);
  Router router;
  ASSERT_GT(router.add_backend(fleet[0]->address().to_string()), 0u);
  ASSERT_GT(router.add_backend(fleet[1]->address().to_string()), 0u);

  // Ownership depends on the (per-run) socket paths, so pick the query set
  // FROM the placement: up to 6 stored users per owning backend. With 64
  // users over both backends this covers each live engine in practice, and
  // the identity property holds regardless of the split.
  std::map<std::string, std::vector<std::uint32_t>> by_owner;
  for (std::uint32_t user = 0; user < kStoredUsers; ++user) {
    auto& slice = by_owner[router.owner_of(user)];
    if (slice.size() < 6) slice.push_back(user);
  }
  EXPECT_EQ(by_owner.size(), 2u)
      << "expected both engine processes to own some of 64 users";
  std::vector<std::uint32_t> users;
  for (const auto& [owner, slice] : by_owner) {
    users.insert(users.end(), slice.begin(), slice.end());
  }
  ASSERT_GE(users.size(), 6u);

  for (const std::uint32_t user : users) {
    router.deploy(user, /*version=*/1, tiny_spec(),
                  rt::temperature_of(user));
  }
  EXPECT_EQ(router.deployed_users(), users.size());

  // The direct reference engine: same deployments, no wire.
  serve::DeploymentRegistry direct_registry(4);
  for (const std::uint32_t user : users) {
    direct_registry.deploy(user, rt::reference_deployment(user, 1));
  }
  serve::BatchScheduler direct(direct_registry,
                               {.max_batch = 8,
                                .max_delay = std::chrono::microseconds(200)});

  Rng rng(42);
  std::vector<serve::PredictRequest> requests;
  for (const std::uint32_t user : users) {
    for (int repeat = 0; repeat < 4; ++repeat) {
      requests.push_back({user, random_window(rng), 3});
    }
  }

  const auto routed = router.serve(requests);
  const auto reference = direct.serve(requests);
  ASSERT_EQ(routed.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(routed[i].ok) << "request " << i;
    EXPECT_EQ(routed[i].user_id, requests[i].user_id);
    EXPECT_EQ(routed[i].model_version, 1u);
    EXPECT_EQ(routed[i].locations, reference[i].locations)
        << "routed top-k must be bit-identical to the direct engine "
           "(request "
        << i << ", user " << requests[i].user_id << ")";
  }

  // Second reference: raw single-query deployments, one per user.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto deployment = rt::reference_deployment(requests[i].user_id, 1);
    EXPECT_EQ(routed[i].locations,
              deployment.predict_top_k(requests[i].window, requests[i].k));
  }

  // An undeployed user is answered ok = false (admitted, nothing to serve),
  // exactly as the direct engine answers it — not a transport error.
  const auto unknown =
      router.serve(std::vector<serve::PredictRequest>{
          {kStoredUsers + 5, random_window(rng), 3}});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_FALSE(unknown[0].ok);
  EXPECT_FALSE(unknown[0].rejected);

  // Fleet stats observed every routed request, engine-side.
  const auto snap = router.fleet_metrics().stats;
  EXPECT_EQ(snap.requests_served, requests.size());
  EXPECT_EQ(snap.requests_rejected, 1u);
  EXPECT_GE(snap.batches_run, 1u);

  // The router counted the same rows once each, under its own prefix.
  const auto router_snap =
      serve::ServerStats(router.metrics().state(), serve::kRouterMetricPrefix)
          .snapshot();
  EXPECT_EQ(router_snap.requests_served, requests.size());
  EXPECT_EQ(router_snap.requests_rejected, 1u);
  EXPECT_EQ(router_snap.requests_shed, 0u);
}

TEST(RouterIdentityTest, JoiningBackendServesTheUsersItTakesOver) {
  constexpr std::uint32_t kUsers = 32;
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kUsers, /*versions=*/1);
  const auto fleet = rt::start_fleet(dir, /*processes=*/2);
  Router router;
  ASSERT_GT(router.add_backend(fleet[0]->address().to_string()), 0u);
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, /*version=*/1, tiny_spec(), rt::temperature_of(user));
  }

  // The joiner takes partitions, and with them users deployed before it
  // existed: it must serve them at once, not after some failover.
  const std::string joiner = fleet[1]->address().to_string();
  ASSERT_GT(router.add_backend(joiner), 0u);
  std::size_t taken = 0;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    if (router.owner_of(user) == joiner) ++taken;
  }
  EXPECT_GT(taken, 0u) << "the joiner should own some of 32 users";

  Rng rng(11);
  std::vector<serve::PredictRequest> requests;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    requests.push_back({user, random_window(rng), 3});
  }
  const auto routed = router.serve(requests);
  ASSERT_EQ(routed.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::uint32_t user = requests[i].user_id;
    ASSERT_TRUE(routed[i].ok)
        << "user " << user << " owned by " << router.owner_of(user);
    EXPECT_EQ(routed[i].locations,
              rt::reference_deployment(user, 1).predict_top_k(
                  requests[i].window, requests[i].k));
  }
}

TEST(RouterIdentityTest, JoinUnderLoadAnswersEveryRead) {
  constexpr std::uint32_t kUsers = 32;
  struct ClearFaults {
    ~ClearFaults() { fault::Injector::global().clear(); }
  } clear_faults;
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kUsers, /*versions=*/1);
  const auto fleet = rt::start_fleet(dir, /*processes=*/2);
  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // every read goes to its owner
  Router router(config);
  ASSERT_GT(router.add_backend(dir.socket_address(0)), 0u);
  std::vector<serve::PredictRequest> requests;
  std::vector<std::vector<std::uint16_t>> expected;
  Rng rng(23);
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, /*version=*/1, tiny_spec(), rt::temperature_of(user));
    requests.push_back({user, random_window(rng), 3});
    expected.push_back(rt::reference_deployment(user, 1).predict_top_k(
        requests.back().window, 3));
  }

  // The joiner installs each user it takes over 20 ms late. A read routed
  // to it before its user is there would come back ok = false: the join
  // must deploy first and move the partitions after.
  const std::string joiner = dir.socket_address(1);
  fault::Rule slow_deploy;
  slow_deploy.site = "engine.handle.deploy";
  slow_deploy.peer = joiner;
  slow_deploy.action = fault::Action::kDelay;
  slow_deploy.delay_ms = 20.0;
  fault::Injector::global().configure({slow_deploy}, /*seed=*/1);

  rt::ReadLoad load(router, requests, expected);
  ASSERT_TRUE(load.await_reads(100));
  ASSERT_GT(router.add_backend(joiner), 0u);
  ASSERT_TRUE(load.await_reads(400));
  load.stop();

  std::size_t taken = 0;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    if (router.owner_of(user) == joiner) ++taken;
  }
  EXPECT_GT(taken, 0u) << "the joiner should own some of 32 users";
  EXPECT_EQ(load.failed(), 0u)
      << load.failed() << " of " << load.reads()
      << " reads reached an owner that did not hold the user yet";
  EXPECT_EQ(load.wrong(), 0u);
}

TEST(RouterIdentityTest, JoinAfterTheWholeFleetFailedTakesEveryUser) {
  constexpr std::uint32_t kUsers = 8;
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kUsers, /*versions=*/1);
  auto fleet = rt::start_fleet(dir, /*processes=*/2);
  Router router;
  ASSERT_GT(router.add_backend(dir.socket_address(0)), 0u);
  Rng rng(31);
  std::vector<serve::PredictRequest> requests;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, /*version=*/1, tiny_spec(), rt::temperature_of(user));
    requests.push_back({user, random_window(rng), 3});
  }

  // The only engine goes away: its users are left with no owner.
  fleet[0].reset();
  for (const auto& response : router.serve(requests)) {
    EXPECT_TRUE(response.rejected);
  }
  ASSERT_TRUE(router.live_backends().empty());

  // The next engine to join takes every ledger user.
  EXPECT_EQ(router.add_backend(dir.socket_address(1)),
            RouterConfig{}.partitions);
  const auto served = router.serve(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(served[i].ok) << "user " << requests[i].user_id;
    EXPECT_EQ(served[i].locations,
              rt::reference_deployment(requests[i].user_id, 1)
                  .predict_top_k(requests[i].window, 3));
  }
}

TEST(RouterIdentityTest, DeployOfMissingVersionIsRefusedNotFatal) {
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), /*users=*/2, /*versions=*/1);
  const auto fleet = rt::start_fleet(dir, 1);
  Router router;
  (void)router.add_backend(fleet[0]->address().to_string());

  EXPECT_THROW(router.deploy(0, /*version=*/9, tiny_spec(), 1.0),
               std::runtime_error)
      << "the engine's store lookup failure must surface as a refusal";
  EXPECT_EQ(router.deployed_users(), 0u)
      << "a refused deploy must not linger in the failover ledger";

  // The fleet stays fully usable afterwards.
  router.deploy(0, 1, tiny_spec(), rt::temperature_of(0));
  Rng rng(3);
  const auto ok = router.serve(
      std::vector<serve::PredictRequest>{{0, random_window(rng), 3}});
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].ok);
}

TEST(RouterIdentityTest, AddBackendRejectsUnreachableAddress) {
  Router router;
  EXPECT_THROW((void)router.add_backend("unix:/tmp/plcn_no_such.sock"),
               WireError)
      << "a typo'd fleet config must fail at add, not at first serve";
  EXPECT_TRUE(router.live_backends().empty());
}

}  // namespace
}  // namespace pelican::router
