// One round of Router::serve(), planned: which outstanding requests are
// shed, and how the rest split into one batch per owning backend. Pure: no
// socket, no clock (tests/router/round_plan_test.cpp enumerates it). The
// Router reads the owners under its lock and the elapsed time from the
// call's stopwatch, then carries the plan out from the calling thread.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "serve/scheduler.hpp"

namespace pelican::router {

/// An outstanding request of the call: its index and its owner's address.
struct Outstanding {
  std::size_t index = 0;
  std::string_view owner;
};

struct RoundPolicy {
  double request_timeout_ms = 0.0;  ///< <= 0: exchanges are unbounded
  double hedge_delay_ms = -1.0;     ///< the call's resolved delay; < 0: off
};

/// One owner's batch: entries [begin, end) of RoundPlan::order and batch.
struct RoundGroup {
  std::string_view owner;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// request_timeout_ms, tightened to the batch's largest remaining budget;
  /// <= 0: none.
  double timeout_ms = 0.0;
  /// The hedge is due before the exchange times out (one due at or after
  /// it never fires).
  bool hedges = false;
};

struct RoundPlan {
  /// Requests past their deadline: answered rejected, never forwarded
  /// (the engine would shed them at its admission anyway).
  std::vector<std::size_t> shed;
  /// The forwarded requests' indices, group by group, each group in
  /// outstanding order.
  std::vector<std::size_t> order;
  /// The requests of `order`, each deadline decremented by the elapsed time
  /// (floored at 1 us) so the engine's admission sees what is left.
  std::vector<serve::PredictRequest> batch;
  /// In owner-address order: the order connections are leased in, so two
  /// callers never wait on each other's pool slots.
  std::vector<RoundGroup> groups;

  [[nodiscard]] std::span<const serve::PredictRequest> batch_of(
      const RoundGroup& group) const {
    return std::span(batch).subspan(group.begin, group.end - group.begin);
  }
  [[nodiscard]] std::span<const std::size_t> order_of(
      const RoundGroup& group) const {
    return std::span(order).subspan(group.begin, group.end - group.begin);
  }
};

/// Plans a round over `outstanding` (indices into `requests`) at
/// `elapsed_ms` into the call. A request with a deadline (> 0) is shed
/// once the elapsed time reaches it.
[[nodiscard]] RoundPlan plan_round(
    std::span<const serve::PredictRequest> requests,
    std::span<const Outstanding> outstanding, double elapsed_ms,
    const RoundPolicy& policy);

}  // namespace pelican::router
