// Fleet smoke over real processes — the CI-labeled router_smoke target:
// two pelican_engined processes over Unix sockets, tiny traffic, a routed
// publish, fleet-wide stats, and a clean drain. Exercises the wire
// protocol end to end (socket framing, every verb, process lifecycle) on
// every commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "router/router.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_spec;

TEST(FleetProcessTest, TwoProcessFleetServesPublishesAndDrains) {
  constexpr std::uint32_t kUsers = 6;
  constexpr std::size_t kRequests = 64;
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kUsers, /*versions=*/2);

  rt::EngineProcesses engines;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_GT(engines.spawn(dir, i), 0);
    ASSERT_TRUE(rt::wait_connectable(dir.socket_address(i)))
        << "engine " << i << " did not come up";
  }

  Router router;
  (void)router.add_backend(dir.socket_address(0));
  (void)router.add_backend(dir.socket_address(1));
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
  }

  // Tiny traffic: every response ok and bit-identical to the reference.
  Rng rng(2);
  std::vector<serve::PredictRequest> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.push_back(
        {static_cast<std::uint32_t>(rng.below(kUsers)), random_window(rng),
         3});
  }
  const auto responses = router.serve(requests);
  ASSERT_EQ(responses.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(responses[i].ok) << "request " << i;
    EXPECT_EQ(responses[i].model_version, 1u);
    auto reference = rt::reference_deployment(requests[i].user_id, 1);
    EXPECT_EQ(responses[i].locations,
              reference.predict_top_k(requests[i].window, 3));
  }

  // A routed publish is visible on the next query.
  router.publish(0, 2);
  const auto updated = router.serve(
      std::vector<serve::PredictRequest>{{0, random_window(rng), 3}});
  ASSERT_TRUE(updated[0].ok);
  EXPECT_EQ(updated[0].model_version, 2u);

  // Fleet stats merged across both processes account for all traffic.
  const auto snap = router.fleet_metrics().stats;
  EXPECT_EQ(snap.requests_served, kRequests + 1);
  EXPECT_GT(snap.p50_latency_ms, 0.0);

  const auto health = router.fleet_health();
  ASSERT_EQ(health.size(), 2u);
  std::uint64_t deployments = 0;
  for (const auto& [address, reply] : health) {
    EXPECT_FALSE(reply.draining);
    deployments += reply.deployments;
  }
  EXPECT_EQ(deployments, kUsers);

  // Drain: both processes ack and exit 0.
  router.drain_fleet();
  for (std::size_t i = 0; i < engines.size(); ++i) {
    EXPECT_EQ(engines.reap(i), 0);
  }
  EXPECT_TRUE(router.live_backends().empty());
}

TEST(FleetProcessTest, OneTraceSpansRouterAndBothEngineProcesses) {
  // PR 7 acceptance: a routed predict through a real 2-process fleet yields
  // ONE trace whose stage spans come from both sides of the wire, and the
  // fleet-merged stage histograms are exactly the bucket-wise sum of the
  // per-engine histograms.
  constexpr std::uint32_t kUsers = 8;
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), kUsers, /*versions=*/1);

  rt::EngineProcesses engines;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_GT(engines.spawn(dir, i), 0);
    ASSERT_TRUE(rt::wait_connectable(dir.socket_address(i)))
        << "engine " << i << " did not come up";
  }

  Router router;
  (void)router.add_backend(dir.socket_address(0));
  (void)router.add_backend(dir.socket_address(1));
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
  }
  // The traced batch must provably cross both processes, so find two users
  // with distinct owners. The ring hashes backend ADDRESSES, which embed
  // this test's pid (TempDir), so which users co-locate varies run to run —
  // with only kUsers candidates the search occasionally came up empty and
  // flaked. Scan a wide id range instead (the partitioner is a pure hash;
  // candidates need not be deployed yet) and deploy the pick on demand.
  std::uint32_t user_a = 0;
  std::uint32_t user_b = 0;
  const std::string owner_a = router.owner_of(user_a);
  for (std::uint32_t user = 1; user < 1024; ++user) {
    if (router.owner_of(user) != owner_a) {
      user_b = user;
      break;
    }
  }
  ASSERT_NE(router.owner_of(user_b), owner_a)
      << "partitioner parked 1024 consecutive users on one backend";
  if (user_b >= kUsers) {
    rt::put_model(dir.store_root(), user_b, 1);
    router.deploy(user_b, 1, tiny_spec(), rt::temperature_of(user_b));
  }

  // Stamp our own trace id (callers may): the router must preserve it, the
  // engines must record under it.
  const std::uint64_t trace = obs::new_trace_id();
  Rng rng(3);
  std::vector<serve::PredictRequest> requests;
  requests.push_back({user_a, random_window(rng), 3});
  requests.push_back({user_b, random_window(rng), 3});
  for (auto& request : requests) request.trace_id = trace;
  const auto responses = router.serve(requests);
  for (const auto& response : responses) ASSERT_TRUE(response.ok);

  const auto fleet = router.fleet_metrics();

  // One trace, records from three processes: both engines and the router.
  std::set<std::string> sources;
  std::set<obs::Stage> stages;
  for (const auto& rec : fleet.traces) {
    if (rec.trace_id != trace) continue;
    sources.insert(rec.source);
    for (const auto& span : rec.spans) stages.insert(span.stage);
  }
  EXPECT_EQ(sources.size(), 3u)
      << "expected records from both engines and the router";
  EXPECT_TRUE(sources.contains("router"));
  EXPECT_GE(stages.size(), 6u) << "at least six named stages end to end";
  for (const obs::Stage stage :
       {obs::Stage::kQueueWait, obs::Stage::kEncode, obs::Stage::kForward,
        obs::Stage::kRankTopK, obs::Stage::kWireSerialize,
        obs::Stage::kRouterFanout}) {
    EXPECT_TRUE(stages.contains(stage))
        << "missing stage " << obs::to_string(stage);
  }

  // Exact merge: the fleet registry equals the bucket-wise fold of the raw
  // per-engine reports plus the router's own registry — computed here
  // independently with obs::merge_state over the same inputs.
  ASSERT_EQ(fleet.engines.size(), 2u);
  obs::RegistryState expected;
  for (const auto& [address, report] : fleet.engines) {
    obs::merge_state(expected, report.registry);
  }
  obs::merge_state(expected, router.metrics().state());
  ASSERT_EQ(fleet.registry.histograms.size(), expected.histograms.size());
  for (std::size_t h = 0; h < expected.histograms.size(); ++h) {
    EXPECT_EQ(fleet.registry.histograms[h].first,
              expected.histograms[h].first);
    EXPECT_EQ(fleet.registry.histograms[h].second.buckets,
              expected.histograms[h].second.buckets)
        << fleet.registry.histograms[h].first;
    EXPECT_EQ(fleet.registry.histograms[h].second.count,
              expected.histograms[h].second.count);
  }
  // And the engine-side histograms really saw this traffic: the forward
  // stage counted at least our two requests across the fleet.
  const auto forward = std::find_if(
      fleet.registry.histograms.begin(), fleet.registry.histograms.end(),
      [](const auto& entry) {
        return entry.first == obs::stage_metric_name(obs::Stage::kForward);
      });
  ASSERT_NE(forward, fleet.registry.histograms.end());
  EXPECT_GE(forward->second.count, 2u);

  router.drain_fleet();
  for (std::size_t i = 0; i < engines.size(); ++i) {
    EXPECT_EQ(engines.reap(i), 0);
  }
}

TEST(FleetProcessTest, LocalFleetEnginesDieWithTheirOwner) {
  // Orphans re-parent to this process, so it can wait for the engine that
  // a dead owner leaves behind.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  struct StopReaping {
    ~StopReaping() { ::prctl(PR_SET_CHILD_SUBREAPER, 0); }
  } stop_reaping;
  rt::TempDir dir;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t owner = ::fork();
  ASSERT_GE(owner, 0);
  if (owner == 0) {
    // The owner builds a one-engine fleet, reports the engine's pid, and
    // exits without running LocalFleet's destructor.
    ::close(fds[0]);
    pid_t engine = -1;
    try {
      LocalFleetConfig config;
      config.root = dir.path();
      config.processes = 1;
      config.engined_binary = rt::engined_path();
      LocalFleet fleet(config);
      engine = fleet.pid(0);
      (void)!::write(fds[1], &engine, sizeof engine);
      ::_exit(0);
    } catch (...) {
    }
    (void)!::write(fds[1], &engine, sizeof engine);
    ::_exit(1);
  }
  ::close(fds[1]);
  pid_t engine = -1;
  const auto got = ::read(fds[0], &engine, sizeof engine);
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(owner, &status, 0), owner);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof engine));
  ASSERT_GT(engine, 0) << "the owner could not start its engine";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pid_t reaped = 0;
  while ((reaped = ::waitpid(engine, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped != engine) {
    ::kill(engine, SIGKILL);
    (void)::waitpid(engine, &status, 0);
    FAIL() << "the engine outlived its owner by 5 s";
  }
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the engine should be SIGKILLed when its owner exits";
}

}  // namespace
}  // namespace pelican::router
