#include "router/membership.hpp"

#include <algorithm>

namespace pelican::router::membership {

namespace {

std::uint64_t ms_to_ns(double ms) {
  return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1e6) : 0;
}

}  // namespace

Step step(State state, Observation observation, std::uint64_t now_ns,
          const Policy& policy) {
  Actions actions;
  const bool live = state.phase == Phase::kLive;
  const std::uint64_t doublings = std::min<std::uint64_t>(
      std::max<std::uint64_t>(state.quarantines, 1) - 1, 6);
  const bool past_holddown =
      state.phase == Phase::kQuarantined &&
      now_ns - state.quarantined_at_ns >=
          ms_to_ns(policy.quarantine_holddown_ms) << doublings;
  const auto quarantine = [&] {
    state.phase = Phase::kQuarantined;
    state.quarantined_at_ns = now_ns;
    ++state.quarantines;
    actions.move = Move::kOut;
    actions.journal = obs::EventType::kQuarantine;
  };
  switch (observation) {
    case Observation::kJoin:
      if (state.phase == Phase::kAbsent) {
        state = State{.phase = Phase::kLive};
        actions.move = Move::kIn;
      }
      break;
    case Observation::kDataOk:
      if (live) state.strikes = 0;
      break;
    case Observation::kTimeout:
      actions.count_timeout = true;
      if (!live) break;
      if (++state.strikes >= policy.quarantine_after_timeouts) {
        quarantine();  // persistently slow is hung, whatever probes say
      } else if (state.probe_asked_ns == 0 ||
                 now_ns - state.probe_asked_ns >=
                     ms_to_ns(policy.probe_interval_ms)) {
        state.probe_asked_ns = now_ns;  // a timeout storm probes once
        actions.probe = true;
      }
      break;
    case Observation::kTransportError:
      if (live) {
        state.phase = Phase::kAbsent;
        actions.move = Move::kOut;
        actions.journal = obs::EventType::kFailover;
      }
      break;
    case Observation::kProbeFail:
      if (live) quarantine();
      break;
    case Observation::kProbeOk:
      if (past_holddown) {
        state.phase = Phase::kLive;
        state.strikes = 0;
        actions.move = Move::kIn;
        actions.journal = obs::EventType::kUnquarantine;
      }
      break;
    case Observation::kRecoveryTick:
      actions.probe = past_holddown;
      break;
  }
  return {state, actions};
}

}  // namespace pelican::router::membership
