// Tail tolerance against HUNG (not dead) engines, in-process so the fault
// injector can be driven programmatically:
//
//   hedge        a stalled predict handler loses the race to a hedged
//                duplicate on the second engine — bit-identical answer,
//                no failover, hedge counters visible.
//   race rules   a primary that answers while its hedge still runs wins,
//                and ends a hedge stalled on its target at once; a hedge
//                that fails leaves the primary to answer; callers hedging
//                in both directions under full pools all return, those
//                reading both engines in one batch too.
//   one thread   a batch over both engines waits for them from the
//                calling thread, starting no thread of its own.
//   quarantine   an engine stalling predicts AND health probes is
//                quarantined (partitions move, users re-deploy) and the
//                serve call still answers within its own call; lifting the
//                fault lets the recovery prober fold the engine back in.
//   drain        drain_fleet() of a wedged engine returns within the drain
//                deadline instead of hanging teardown.
//
// Every test clears the global injector on exit (the workers share this
// process); stalls are interruptible, so clear() also releases any engine
// handler thread still sleeping inside a faulted handle_frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "router/engine_worker.hpp"
#include "router/router.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_spec;

/// Clears the process-global injector even when an ASSERT unwinds the test.
struct FaultGuard {
  ~FaultGuard() { fault::Injector::global().clear(); }
};

/// The process's thread count, from /proc/self/status.
long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("Threads:")) return std::stol(line.substr(8));
  }
  return -1;
}

/// Polls `condition` for up to `limit`.
template <typename Condition>
bool eventually(Condition condition,
                std::chrono::seconds limit = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return condition();
}

class HedgeQuarantineTest : public ::testing::Test {
 protected:
  // Enough users that both engines own at least one with overwhelming
  // probability (the partition split depends on the per-run socket paths).
  static constexpr std::uint32_t kUsers = 16;

  void SetUp() override {
    rt::fill_store(dir_.store_root(), kUsers, /*versions=*/1);
    for (std::size_t i = 0; i < 2; ++i) {
      workers_.push_back(
          std::make_unique<EngineWorker>(rt::engine_config(dir_, i)));
      workers_.back()->start();
    }
  }

  void TearDown() override {
    fault::Injector::global().clear();
    workers_.clear();
  }

  void deploy_all(Router& router) {
    for (std::size_t i = 0; i < 2; ++i) {
      (void)router.add_backend(dir_.socket_address(i));
    }
    for (std::uint32_t user = 0; user < kUsers; ++user) {
      router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
    }
  }

  /// Requests covering every user plus their reference answers.
  void build_requests() {
    Rng rng(17);
    for (std::uint32_t user = 0; user < kUsers; ++user) {
      requests_.push_back({user, random_window(rng), 3});
      expected_.push_back(rt::reference_deployment(user, 1)
                              .predict_top_k(requests_.back().window, 3));
    }
  }

  /// Indices into requests_ of each engine's users, by engine index.
  [[nodiscard]] std::array<std::vector<std::size_t>, 2> requests_by_engine(
      const Router& router) const {
    std::array<std::vector<std::size_t>, 2> by_engine;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const bool first =
          router.owner_of(requests_[i].user_id) == dir_.socket_address(0);
      by_engine[first ? 0 : 1].push_back(i);
    }
    return by_engine;
  }

  /// The other engine of the two: the hedge target of `owner`'s reads.
  [[nodiscard]] std::string other_than(const std::string& owner) const {
    return owner == dir_.socket_address(0) ? dir_.socket_address(1)
                                           : dir_.socket_address(0);
  }

  /// A router hedging after `hedge_delay_ms`, with neither the budget nor
  /// a timeout in the way.
  static RouterConfig hedging_config(double hedge_delay_ms) {
    RouterConfig config;
    config.hedge_delay_ms = hedge_delay_ms;
    config.hedge_budget_fraction = 1.0;
    config.request_timeout_ms = 10000.0;
    return config;
  }

  static fault::Rule rule(const std::string& site, const std::string& peer,
                          fault::Action action, double delay_ms = 0.0) {
    fault::Rule rule;
    rule.site = site;
    rule.peer = peer;
    rule.action = action;
    rule.delay_ms = delay_ms;
    return rule;
  }

  rt::TempDir dir_;
  std::vector<std::unique_ptr<EngineWorker>> workers_;
  std::vector<serve::PredictRequest> requests_;
  std::vector<std::vector<std::uint16_t>> expected_;
};

TEST_F(HedgeQuarantineTest, HedgeWinsAgainstStalledPredictHandler) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = 25.0;         // hedge fast, the stall is forever
  config.hedge_budget_fraction = 1.0;   // budget must not gate this test
  config.request_timeout_ms = 10000.0;  // the hedge, not a timeout, must win
  Router router(config);
  deploy_all(router);
  build_requests();

  // Stall ONLY engine 0's predict handling: deploys, probes, and everything
  // on engine 1 run normally.
  fault::Rule stall;
  stall.site = "engine.handle.predict_batch";
  stall.peer = dir_.socket_address(0);
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  fault::Injector::global().configure({stall}, /*seed=*/1);

  const auto start = std::chrono::steady_clock::now();
  const auto responses = router.serve(requests_);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << "user " << requests_[i].user_id;
    EXPECT_EQ(responses[i].locations, expected_[i])
        << "the hedged copy must serve the same bits";
  }
  // The answer came from the hedge, not from waiting out the 10 s timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(8));
  EXPECT_GE(router.metrics().counter("router_hedges_total").value(), 1u);
  EXPECT_GE(router.metrics().counter("router_hedge_wins_total").value(), 1u);
  // The stalled engine was never declared dead — hedging routed around it.
  EXPECT_EQ(router.live_backends().size() + router.quarantined_backends()
                                                .size(),
            2u);

  fault::Injector::global().clear();  // release the stalled handler thread
}

TEST_F(HedgeQuarantineTest, PrimaryAnsweringWhileItsHedgeRunsWins) {
  FaultGuard guard;
  Router router(hedging_config(25.0));
  deploy_all(router);
  build_requests();
  const std::string owner = router.owner_of(requests_[0].user_id);

  // The owner answers in ~150 ms. Its hedge fires at 25 ms but spends
  // longer re-deploying on the target, so the primary's reply is readable
  // by the time the hedge's arrives: the primary wins.
  fault::Injector::global().configure(
      {rule("engine.handle.predict_batch", owner, fault::Action::kDelay, 150),
       rule("engine.handle.deploy", other_than(owner), fault::Action::kDelay,
            400)},
      /*seed=*/1);

  const auto responses =
      router.serve(std::vector<serve::PredictRequest>{requests_[0]});
  ASSERT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].locations, expected_[0]);
  EXPECT_GE(router.metrics().counter("router_hedges_total").value(), 1u);
  EXPECT_EQ(router.metrics().counter("router_hedge_wins_total").value(), 0u)
      << "a hedge answering after the primary must not win";
  EXPECT_EQ(router.metrics().counter("router_request_timeouts_total").value(),
            0u)
      << "a primary that answered earns no strike";
  EXPECT_EQ(router.live_backends().size(), 2u);
}

TEST_F(HedgeQuarantineTest, PrimaryAnsweringDuringAStalledHedgeWins) {
  FaultGuard guard;
  Router router(hedging_config(25.0));
  deploy_all(router);
  build_requests();
  const std::string owner = router.owner_of(requests_[0].user_id);

  // The owner answers in ~150 ms. Its hedge fires at 25 ms at an engine
  // whose predict handler is stalled, so the hedge would wait out the 10 s
  // timeout; the primary's reply must end it instead.
  fault::Injector::global().configure(
      {rule("engine.handle.predict_batch", owner, fault::Action::kDelay, 150),
       rule("engine.handle.predict_batch", other_than(owner),
            fault::Action::kStall, 60000)},
      /*seed=*/1);

  const auto start = std::chrono::steady_clock::now();
  const auto responses =
      router.serve(std::vector<serve::PredictRequest>{requests_[0]});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].locations, expected_[0]);
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "the primary's reply must end a hedge stalled on its target";
  EXPECT_GE(router.metrics().counter("router_hedges_total").value(), 1u);
  EXPECT_EQ(router.metrics().counter("router_hedge_wins_total").value(), 0u);
  EXPECT_EQ(router.metrics().counter("router_request_timeouts_total").value(),
            0u);
  EXPECT_EQ(router.live_backends().size(), 2u);
}

TEST_F(HedgeQuarantineTest, FailedHedgeLeavesThePrimaryToAnswer) {
  FaultGuard guard;
  Router router(hedging_config(25.0));
  deploy_all(router);
  build_requests();
  const std::string owner = router.owner_of(requests_[0].user_id);
  const std::string target = other_than(owner);

  // The owner is late, so the hedge fires; the target drops its deploy, so
  // the hedge fails. The primary's late answer is the one served.
  fault::Injector::global().configure(
      {rule("engine.handle.predict_batch", owner, fault::Action::kDelay, 150),
       rule("engine.handle.deploy", target, fault::Action::kDrop)},
      /*seed=*/1);

  const auto responses =
      router.serve(std::vector<serve::PredictRequest>{requests_[0]});
  ASSERT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].locations, expected_[0]);
  EXPECT_GE(router.metrics().counter("router_hedges_total").value(), 1u);
  EXPECT_EQ(router.metrics().counter("router_hedge_wins_total").value(), 0u);
  // A failed hedge never fails its target over.
  EXPECT_EQ(router.live_backends(),
            (std::vector<std::string>{dir_.socket_address(0),
                                      dir_.socket_address(1)}));
}

TEST_F(HedgeQuarantineTest, CrossHedgesUnderFullPoolsAllReturn) {
  FaultGuard guard;
  // Pools smaller than the three callers of each owner order below: a
  // caller that leased in its batch's order instead of address order could
  // then hold every slot of one engine while it waits for the other's.
  RouterConfig config = hedging_config(5.0);
  config.pool_connections = 2;
  Router router(config);
  deploy_all(router);
  build_requests();

  const auto by_engine = requests_by_engine(router);
  ASSERT_FALSE(by_engine[0].empty());
  ASSERT_FALSE(by_engine[1].empty());

  // Both engines answer predicts late, so nearly every read hedges at the
  // other engine — in both directions at once, while 12 callers keep both
  // pools (2 connections each) full. Half the callers read one user; the
  // other half read one user on each engine in one batch, half of them
  // listing engine 0's user first and half engine 1's, so their leases
  // meet in both orders.
  fault::Injector::global().configure(
      {rule("engine.handle.predict_batch", "", fault::Action::kDelay, 40)},
      /*seed=*/1);

  constexpr std::size_t kCallers = 12;
  constexpr std::size_t kCalls = 5;
  std::atomic<std::size_t> returned{0};
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t call = 0; call < kCalls; ++call) {
        const std::size_t n = c * kCalls + call;
        std::vector<std::size_t> picks = {n % requests_.size()};
        if (c % 2 == 1) {
          picks = {by_engine[0][n % by_engine[0].size()],
                   by_engine[1][n % by_engine[1].size()]};
          if (c % 4 == 3) std::swap(picks[0], picks[1]);
        }
        std::vector<serve::PredictRequest> batch;
        for (const std::size_t i : picks) batch.push_back(requests_[i]);
        const auto responses = router.serve(batch);
        for (std::size_t j = 0; j < picks.size(); ++j) {
          if (responses[j].ok &&
              responses[j].locations != expected_[picks[j]]) {
            wrong.fetch_add(1);
          }
        }
      }
      returned.fetch_add(1);
    });
  }
  if (!eventually([&] { return returned.load() == kCallers; },
                  std::chrono::seconds(20))) {
    ADD_FAILURE() << returned.load() << " of " << kCallers
                  << " callers returned within 20 s: hedges that wait for "
                     "the other engine's pool slots can deadlock";
    // The wedged callers can never be joined; end the process so the
    // test fails instead of hanging.
    std::fflush(stdout);
    std::_Exit(1);
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(router.metrics().counter("router_hedges_total").value(), 1u);
}

TEST_F(HedgeQuarantineTest, TwoOwnerServeStartsNoThread) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // the slow engine is waited for
  config.request_timeout_ms = 10000.0;
  Router router(config);
  deploy_all(router);
  build_requests();
  const auto by_engine = requests_by_engine(router);
  ASSERT_FALSE(by_engine[0].empty());
  ASSERT_FALSE(by_engine[1].empty());

  // Warm up: every connection the call will use is pooled already, so the
  // engines accept nothing new during it.
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& response : router.serve(requests_)) {
      ASSERT_TRUE(response.ok);
    }
  }
  fault::Injector::global().configure(
      {rule("engine.handle.predict_batch", dir_.socket_address(0),
            fault::Action::kDelay, 200)},
      /*seed=*/1);

  // The sampler starts before the baseline is read, so the baseline counts
  // it, and it samples only while the call runs.
  std::atomic<bool> stop{false};
  std::atomic<bool> during{false};
  std::atomic<long> most{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      if (during.load()) most.store(std::max(most.load(), thread_count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const long baseline = thread_count();
  during.store(true);
  const auto start = std::chrono::steady_clock::now();
  const auto responses = router.serve(requests_);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  during.store(false);
  stop.store(true);
  sampler.join();

  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << "user " << requests_[i].user_id;
    EXPECT_EQ(responses[i].locations, expected_[i]);
  }
  EXPECT_GE(elapsed, std::chrono::milliseconds(200))
      << "the call must have waited for the delayed engine";
  EXPECT_GT(most.load(), 0) << "the sampler never ran during the call";
  EXPECT_LE(most.load(), baseline)
      << "serve() over two engines started a thread";
}

TEST_F(HedgeQuarantineTest, StalledEngineIsQuarantinedThenRecovers) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // quarantine path only, no hedging
  config.request_timeout_ms = 250.0;
  config.probe_timeout_ms = 100.0;
  config.probe_interval_ms = 50.0;
  config.quarantine_holddown_ms = 100.0;  // short: the test WANTS recovery
  Router router(config);
  deploy_all(router);
  build_requests();

  // Stall EVERYTHING engine 0 handles — predicts and health probes alike:
  // a genuinely wedged process that still accepts connections.
  fault::Rule stall;
  stall.site = "engine.handle.";
  stall.peer = dir_.socket_address(0);
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  fault::Injector::global().configure({stall}, /*seed=*/1);

  // One serve call must ride out the timeout, quarantine the wedged engine,
  // and answer every request from the survivor — correctly.
  const auto responses = router.serve(requests_);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok)
        << "user " << requests_[i].user_id
        << " must be answered via quarantine-failover";
    EXPECT_EQ(responses[i].locations, expected_[i]);
  }
  EXPECT_EQ(router.quarantined_backends(),
            std::vector<std::string>{dir_.socket_address(0)});
  EXPECT_EQ(router.live_backends(),
            std::vector<std::string>{dir_.socket_address(1)});
  EXPECT_GE(router.metrics().counter("router_request_timeouts_total").value(),
            1u);
  EXPECT_EQ(router.metrics().counter("router_quarantines_total").value(), 1u);

  // Lift the fault: the wedged engine answers probes again, and the
  // recovery prober folds it back into the fleet.
  fault::Injector::global().clear();
  EXPECT_TRUE(eventually([&] { return router.live_backends().size() == 2; }))
      << "a recovered engine must be unquarantined";
  EXPECT_TRUE(router.quarantined_backends().empty());
  EXPECT_EQ(router.metrics().counter("router_unquarantines_total").value(),
            1u);

  // Back at full strength: the recovered engine owns partitions again and
  // serves its users with unchanged bits (its ledger re-deploy happened at
  // unquarantine).
  const auto after = router.serve(requests_);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(after[i].ok);
    EXPECT_EQ(after[i].locations, expected_[i]);
  }
  bool recovered_engine_owns_something = false;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    if (router.owner_of(user) == dir_.socket_address(0)) {
      recovered_engine_owns_something = true;
    }
  }
  EXPECT_TRUE(recovered_engine_owns_something)
      << "unquarantine must hand partitions back";
}

TEST_F(HedgeQuarantineTest, QuarantineUnderLoadAnswersEveryRead) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // quarantine path only, no hedging
  config.request_timeout_ms = 250.0;
  config.probe_timeout_ms = 100.0;
  config.probe_interval_ms = 50.0;
  config.quarantine_holddown_ms = 60000.0;  // no recovery in this test
  Router router(config);
  deploy_all(router);
  build_requests();
  // Twice the fixture's users, so engine 0 owns a good share to move.
  Rng rng(41);
  for (std::uint32_t user = kUsers; user < 2 * kUsers; ++user) {
    rt::put_model(dir_.store_root(), user, /*version=*/1);
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
    requests_.push_back({user, random_window(rng), 3});
    expected_.push_back(rt::reference_deployment(user, 1)
                            .predict_top_k(requests_.back().window, 3));
  }

  rt::ReadLoad load(router, requests_, expected_);
  ASSERT_TRUE(load.await_reads(100));

  // Engine 0 wedges whole, and engine 1 installs each user it takes over
  // 20 ms late. Reads of engine 0's users must wait for the quarantine to
  // deploy them on engine 1 before they are routed there.
  fault::Injector::global().configure(
      {rule("engine.handle.", dir_.socket_address(0), fault::Action::kStall,
            60000),
       rule("engine.handle.deploy", dir_.socket_address(1),
            fault::Action::kDelay, 20)},
      /*seed=*/1);
  EXPECT_TRUE(eventually(
      [&] { return !router.quarantined_backends().empty(); },
      std::chrono::seconds(20)))
      << "the wedged engine was never quarantined";
  ASSERT_TRUE(load.await_reads(400));
  load.stop();

  EXPECT_EQ(router.quarantined_backends(),
            std::vector<std::string>{dir_.socket_address(0)});
  EXPECT_EQ(load.failed(), 0u)
      << load.failed() << " of " << load.reads()
      << " reads reached an owner that did not hold the user yet";
  EXPECT_EQ(load.wrong(), 0u);
}

TEST_F(HedgeQuarantineTest, DrainOfWedgedEngineHonorsDrainDeadline) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;
  config.drain_timeout_ms = 200.0;
  Router router(config);
  deploy_all(router);

  fault::Rule stall;
  stall.site = "engine.handle.drain";
  stall.peer = dir_.socket_address(0);
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  fault::Injector::global().configure({stall}, /*seed=*/1);

  const auto start = std::chrono::steady_clock::now();
  router.drain_fleet();  // engine 0 never acks; the deadline bounds the wait
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "a wedged engine must not hang drain_fleet";
  EXPECT_TRUE(router.live_backends().empty());

  fault::Injector::global().clear();  // release engine 0's drain handler
  // Engine 1 received its drain and winds down on its own; worker teardown
  // in TearDown() covers engine 0.
  workers_[1]->wait();
}

}  // namespace
}  // namespace pelican::router
