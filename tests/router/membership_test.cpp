// The membership table (router/membership.hpp), checked exhaustively: every
// sequence of (time advance, observation) steps up to kDepth long, from
// start states covering every strike count below N and 0..8 prior
// quarantines (so the 64x hold-down cap is reached), against the rules the
// Router's failover and recovery rest on:
//
//   - live → quarantined only on a timeout that reaches N strikes, or on a
//     failed probe;
//   - strikes fall only on a data-plane ok or on a (re)join;
//   - no rejoin inside the hold-down, which doubles per quarantine and
//     caps at 64x;
//   - a suspicion probe is asked for at most once per probe_interval;
//   - every phase change moves partitions exactly once, and no other step
//     moves any;
//   - every quarantine, unquarantine and failover journals exactly one
//     event, a join none, and no other step any;
//   - every timeout counts exactly once.
//
// Time advances come from {0, probe_interval, 1 ns short of the current
// hold-down, 1 ns past it}, so each rule is probed at its boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "router/membership.hpp"

namespace pelican::router::membership {
namespace {

constexpr int kDepth = 3;
constexpr std::uint64_t kMsNs = 1'000'000;
/// The clock starts here: probe_asked_ns = 0 means "never".
constexpr std::uint64_t kStartNs = 1'000'000 * kMsNs;

constexpr std::array kObservations = {
    Observation::kJoin,           Observation::kDataOk,
    Observation::kTimeout,        Observation::kTransportError,
    Observation::kProbeFail,      Observation::kProbeOk,
    Observation::kRecoveryTick,
};

const char* name(Observation observation) {
  switch (observation) {
    case Observation::kJoin: return "join";
    case Observation::kDataOk: return "data-ok";
    case Observation::kTimeout: return "timeout";
    case Observation::kTransportError: return "transport-error";
    case Observation::kProbeFail: return "probe-fail";
    case Observation::kProbeOk: return "probe-ok";
    case Observation::kRecoveryTick: return "recovery-tick";
  }
  return "?";
}

/// The hold-down after the q-th quarantine, written out independently of
/// membership.cpp: base × {1, 2, 4, ..., 64}, and 64x from then on.
std::uint64_t holddown_ns(const Policy& policy, std::uint64_t quarantines) {
  if (policy.quarantine_holddown_ms <= 0.0) return 0;
  constexpr std::array<std::uint64_t, 7> kFactor = {1, 2, 4, 8, 16, 32, 64};
  const std::uint64_t index =
      std::min<std::uint64_t>(quarantines == 0 ? 0 : quarantines - 1, 6);
  return static_cast<std::uint64_t>(policy.quarantine_holddown_ms) * kMsNs *
         kFactor[index];
}

struct Trail {
  std::array<std::uint64_t, kDepth> advance{};
  std::array<Observation, kDepth> observation{};
};

class Walker {
 public:
  explicit Walker(const Policy& policy) : policy_(policy) {}

  /// Every sequence from `start`. `last_ask_ns` is when the last suspicion
  /// probe was asked for (0: never).
  void walk(const State& start, std::uint64_t now_ns,
            std::uint64_t last_ask_ns, int depth = 0) {
    if (depth == kDepth || failures_ >= 10) return;
    if (depth == 0) start_ = start;
    // The hold-down a probe-ok is judged against now, or the one the next
    // quarantine would bring.
    const bool quarantined = start.phase == Phase::kQuarantined;
    const std::uint64_t holddown =
        holddown_ns(policy_, start.quarantines + (quarantined ? 0 : 1));
    const std::array<std::uint64_t, 4> advances = {
        0, interval_ns(), std::max<std::uint64_t>(holddown, 1) - 1,
        holddown + 1};
    for (const std::uint64_t advance : advances) {
      for (const Observation observation : kObservations) {
        trail_.advance[depth] = advance;
        trail_.observation[depth] = observation;
        const std::uint64_t now = now_ns + advance;
        const Step next = step(start, observation, now, policy_);
        ++steps_;
        std::uint64_t ask = last_ask_ns;
        check(start, observation, now, next, ask, depth);
        walk(next.state, now, ask, depth + 1);
      }
    }
  }

  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  [[nodiscard]] std::uint64_t interval_ns() const {
    return static_cast<std::uint64_t>(policy_.probe_interval_ms) * kMsNs;
  }

  void fail(int depth, const std::string& what) {
    if (++failures_ > 10) return;
    std::ostringstream out;
    out << what << ": from phase " << static_cast<int>(start_.phase)
        << ", strikes " << start_.strikes << ", quarantines "
        << start_.quarantines << ", then";
    for (int d = 0; d <= depth; ++d) {
      out << " [+" << trail_.advance[d] << " ns, "
          << name(trail_.observation[d]) << "]";
    }
    ADD_FAILURE() << out.str();
  }

  void check(const State& s, Observation o, std::uint64_t now,
             const Step& next, std::uint64_t& last_ask, int depth) {
    const State& t = next.state;
    const Actions& a = next.actions;
    const std::uint64_t n = policy_.quarantine_after_timeouts;
    const bool was_live = s.phase == Phase::kLive;
    const bool quarantine = was_live && t.phase == Phase::kQuarantined;
    const bool unquarantine =
        s.phase == Phase::kQuarantined && t.phase == Phase::kLive;
    const bool failover = was_live && t.phase == Phase::kAbsent;
    const bool join = s.phase == Phase::kAbsent && t.phase == Phase::kLive;
    if (s.phase != t.phase &&
        !(quarantine || unquarantine || failover || join)) {
      fail(depth, "a phase change outside the table");
    }

    // Quarantine entry, both ways.
    const bool should_quarantine =
        was_live && ((o == Observation::kTimeout && s.strikes + 1 >= n) ||
                     o == Observation::kProbeFail);
    if (quarantine != should_quarantine) {
      fail(depth, quarantine
                      ? "quarantined without N strikes or a failed probe"
                      : "a live backend escaped its quarantine");
    }
    if (quarantine &&
        (t.quarantined_at_ns != now || t.quarantines != s.quarantines + 1)) {
      fail(depth, "a quarantine that did not record its time and count");
    }
    if (!quarantine && !join && t.quarantines != s.quarantines) {
      fail(depth, "the quarantine count moved without a quarantine");
    }
    if (join && (t.quarantines != 0 || o != Observation::kJoin)) {
      fail(depth, "a join that is not a fresh start");
    }
    if (failover && o != Observation::kTransportError) {
      fail(depth, "a failover without a transport error");
    }

    // Strikes.
    if (t.strikes < s.strikes && o != Observation::kDataOk && !join &&
        !unquarantine) {
      fail(depth, "strikes fell without a data-plane ok or a rejoin");
    }
    if (t.strikes > s.strikes &&
        (o != Observation::kTimeout || t.strikes != s.strikes + 1)) {
      fail(depth, "strikes rose other than by one timeout");
    }

    // Hold-down: never rejoin inside it, always rejoin past it.
    if (s.phase == Phase::kQuarantined) {
      const bool past = now - s.quarantined_at_ns >=
                        holddown_ns(policy_, s.quarantines);
      if (o == Observation::kProbeOk && unquarantine != past) {
        fail(depth, past ? "a probe ok past the hold-down did not rejoin"
                         : "a rejoin inside the hold-down");
      }
      if (o == Observation::kRecoveryTick && a.probe != past) {
        fail(depth, "a recovery tick that misjudged the hold-down");
      }
    }

    // Suspicion probes: at most one per interval of one life.
    if (join) last_ask = 0;
    if (a.probe && was_live) {
      if (last_ask != 0 && now - last_ask < interval_ns()) {
        fail(depth, "two suspicion probes within one probe interval");
      }
      last_ask = now;
    }
    if (a.probe && !was_live && s.phase != Phase::kQuarantined) {
      fail(depth, "an absent backend was probed");
    }

    // Moves: exactly one per phase change, in the right direction.
    const Move expected_move = s.phase == t.phase         ? Move::kNone
                               : t.phase == Phase::kLive ? Move::kIn
                                                         : Move::kOut;
    if (a.move != expected_move) {
      fail(depth, "partitions moved without a phase change, or the wrong way");
    }

    // Journal: one event per quarantine, unquarantine and failover.
    std::optional<obs::EventType> expected_event;
    if (quarantine) expected_event = obs::EventType::kQuarantine;
    if (unquarantine) expected_event = obs::EventType::kUnquarantine;
    if (failover) expected_event = obs::EventType::kFailover;
    if (a.journal != expected_event) {
      fail(depth, "journaled the wrong event, or none, or one too many");
    }

    if (a.count_timeout != (o == Observation::kTimeout)) {
      fail(depth, "a timeout not counted exactly once");
    }
  }

  const Policy& policy_;
  State start_;
  Trail trail_;
  std::uint64_t steps_ = 0;
  int failures_ = 0;
};

/// Start states: every phase, strikes 0..N−1, 0..8 prior quarantines (a
/// quarantined backend has at least one), a suspicion probe never asked or
/// asked half an interval ago.
void walk_all(const Policy& policy, Walker& walker) {
  const auto half_interval =
      static_cast<std::uint64_t>(policy.probe_interval_ms * kMsNs / 2);
  for (const Phase phase :
       {Phase::kAbsent, Phase::kLive, Phase::kQuarantined}) {
    for (std::uint64_t strikes = 0; strikes < policy.quarantine_after_timeouts;
         ++strikes) {
      for (std::uint64_t q = 0; q <= 8; ++q) {
        if (phase == Phase::kQuarantined && q == 0) continue;
        for (const std::uint64_t asked : {std::uint64_t{0},
                                          kStartNs - half_interval}) {
          State start;
          start.phase = phase;
          start.strikes = strikes;
          start.quarantines = q;
          start.quarantined_at_ns = kStartNs;
          start.probe_asked_ns = asked;
          walker.walk(start, kStartNs, asked);
        }
      }
    }
  }
}

TEST(MembershipTest, EverySequenceKeepsTheTableRules) {
  const Policy policy{.quarantine_after_timeouts = 3,
                      .probe_interval_ms = 100.0,
                      .quarantine_holddown_ms = 1000.0};
  Walker walker(policy);
  walk_all(policy, walker);
  EXPECT_GT(walker.steps(), 1'000'000u);
}

TEST(MembershipTest, WithoutAHolddownAProbeOkRejoinsAtOnce) {
  const Policy policy{.quarantine_after_timeouts = 2,
                      .probe_interval_ms = 50.0,
                      .quarantine_holddown_ms = 0.0};
  Walker walker(policy);
  walk_all(policy, walker);
  const Step rejoin = step({.phase = Phase::kQuarantined,
                            .strikes = 1,
                            .quarantines = 8,
                            .quarantined_at_ns = kStartNs},
                           Observation::kProbeOk, kStartNs, policy);
  EXPECT_EQ(rejoin.state.phase, Phase::kLive);
  EXPECT_EQ(rejoin.state.strikes, 0u);
}

TEST(MembershipTest, HolddownDoublesAndCapsAt64x) {
  const Policy policy{.quarantine_after_timeouts = 3,
                      .probe_interval_ms = 100.0,
                      .quarantine_holddown_ms = 10.0};
  for (std::uint64_t q = 1; q <= 10; ++q) {
    const std::uint64_t factor = std::uint64_t{1}
                                 << std::min<std::uint64_t>(q - 1, 6);
    const std::uint64_t holddown = 10 * kMsNs * factor;
    const State quarantined{.phase = Phase::kQuarantined,
                            .quarantines = q,
                            .quarantined_at_ns = kStartNs};
    EXPECT_EQ(step(quarantined, Observation::kProbeOk,
                   kStartNs + holddown - 1, policy)
                  .state.phase,
              Phase::kQuarantined)
        << "quarantine " << q;
    EXPECT_EQ(step(quarantined, Observation::kProbeOk, kStartNs + holddown,
                   policy)
                  .state.phase,
              Phase::kLive)
        << "quarantine " << q;
  }
}

}  // namespace
}  // namespace pelican::router::membership
