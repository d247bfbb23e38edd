// Pooled connections that broke while parked are replaced transparently.
// An engine restart resets every connection the router has pooled to it
// (EPIPE/ECONNRESET on first reuse); the next exchange must retry once on a
// fresh connection instead of declaring the backend dead — the backend is
// fine, only the parked socket rotted. That holds for a fleet pull and for
// a served read alike.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "router/engine_worker.hpp"
#include "router/router.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_spec;

TEST(PoolReconnectTest, EngineRestartDoesNotKillTheBackend) {
  rt::TempDir dir;
  rt::fill_store(dir.store_root(), /*users=*/4, /*versions=*/1);

  auto engine = std::make_unique<EngineWorker>(rt::engine_config(dir, 0));
  engine->start();

  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // isolate the reconnect path
  Router router(config);
  ASSERT_GT(router.add_backend(dir.socket_address(0)), 0u);
  for (std::uint32_t user = 0; user < 4; ++user) {
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
  }

  // A served pass parks at least one connection in the pool.
  Rng rng(3);
  std::vector<serve::PredictRequest> requests;
  for (std::uint32_t user = 0; user < 4; ++user) {
    requests.push_back({user, random_window(rng), 3});
  }
  const auto before = router.serve(requests);
  for (const auto& response : before) ASSERT_TRUE(response.ok);

  // Restart the engine on the same address: every pooled connection is now
  // dead, the backend is not. (Destroy first — the old worker's listener
  // unlinks the socket path on close, which must not race the new bind.)
  engine.reset();
  engine = std::make_unique<EngineWorker>(rt::engine_config(dir, 0));
  engine->start();

  // The next fleet pull hits the rotten pooled socket; the exchange must
  // reconnect transparently rather than fail the backend over.
  const auto health = router.fleet_health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].first, dir.socket_address(0));

  EXPECT_GE(router.metrics().counter("router_pool_reconnects_total").value(),
            1u);
  EXPECT_EQ(router.live_backends().size(), 1u)
      << "a rotten pooled socket must not be treated as a dead backend";
  EXPECT_TRUE(router.quarantined_backends().empty());

  // The restarted engine lost its registry; the router's ledger still knows
  // every deployment, so re-deploying and serving works over the refreshed
  // pool.
  for (std::uint32_t user = 0; user < 4; ++user) {
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
  }
  const auto after = router.serve(requests);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(after[i].ok);
    EXPECT_EQ(after[i].locations, before[i].locations)
        << "same store artifact, same bits, across the engine restart";
  }

  // Restart again, and this time a served read is the first exchange: it
  // meets the rotten pooled socket inside serve()'s own loop.
  const auto reconnects = [&] {
    return router.metrics().counter("router_pool_reconnects_total").value();
  };
  const auto reconnects_before = reconnects();
  engine.reset();
  engine = std::make_unique<EngineWorker>(rt::engine_config(dir, 0));
  engine->start();
  const auto again = router.serve(requests);
  EXPECT_EQ(again.size(), requests.size());
  EXPECT_GT(reconnects(), reconnects_before);
  EXPECT_EQ(router.live_backends().size(), 1u)
      << "a rotten pooled socket must not be treated as a dead backend";
  EXPECT_TRUE(router.quarantined_backends().empty());
}

}  // namespace
}  // namespace pelican::router
