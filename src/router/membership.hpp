// Membership: a backend's life in the fleet as one pure state machine.
//
// The Router feeds every observation it makes of a backend through step(),
// which returns the backend's next state and the actions to carry out.
// Nothing here touches a socket or reads a clock, so the whole table can be
// enumerated in a test (tests/router/membership_test.cpp).
//
//   observation      live                  quarantined        absent
//   join             -                     - (prober owns it) → live, in
//   data-plane ok    strikes = 0           -                  -
//   timeout, or a    count; strikes + 1;   count              count
//   lost hedge race  at N → quarantine;
//                    else probe, at most
//                    once per interval
//   transport error  → absent, out,        -                  -
//                    journal kFailover
//   probe fail       → quarantine          -                  -
//   probe ok         -                     past the hold-down -
//                                          → live, in,
//                                          strikes = 0, journal
//                                          kUnquarantine
//   recovery tick    -                     past the hold-down -
//                                          → probe
//
// "in"/"out" move partitions; "→ quarantine" also records the time, adds 1
// to `quarantines`, moves out and journals kQuarantine. N is
// quarantine_after_timeouts; the interval is probe_interval_ms. The
// hold-down after the q-th quarantine is quarantine_holddown_ms ×
// 2^min(q−1, 6), none when <= 0: a strike-quarantined engine's health verb
// may have answered all along, so without it a hung-but-healthy engine
// would flap in and out. Only a data-plane success clears strikes (a
// metrics poll answering is what a predict-livelocked engine does). A join
// starts a fresh life: the Router forgets absent backends.
#pragma once

#include <cstdint>
#include <optional>

#include "obs/events.hpp"

namespace pelican::router::membership {

enum class Phase : std::uint8_t { kAbsent, kLive, kQuarantined };

enum class Observation : std::uint8_t {
  kJoin,
  kDataOk,
  kTimeout,
  kTransportError,
  kProbeFail,
  kProbeOk,
  kRecoveryTick,
};

enum class Move : std::uint8_t { kNone, kIn, kOut };

/// The RouterConfig fields the table reads.
struct Policy {
  std::uint64_t quarantine_after_timeouts = 3;
  double probe_interval_ms = 100.0;
  double quarantine_holddown_ms = 1000.0;
};

struct State {
  Phase phase = Phase::kAbsent;
  std::uint64_t strikes = 0;      ///< timeouts since the last data-plane ok
  std::uint64_t quarantines = 0;  ///< the hold-down doubles with each
  std::uint64_t quarantined_at_ns = 0;
  std::uint64_t probe_asked_ns = 0;  ///< last suspicion probe; 0 = never

  bool operator==(const State&) const = default;
};

struct Actions {
  /// Partitions to move, the moved ledger users deployed first.
  Move move = Move::kNone;
  /// Health-probe the backend and observe the outcome.
  bool probe = false;
  /// Bump router_request_timeouts_total.
  bool count_timeout = false;
  /// kQuarantine, kUnquarantine or kFailover; the first two also bump
  /// router_quarantines_total / router_unquarantines_total.
  std::optional<obs::EventType> journal;
};

struct Step {
  State state;
  Actions actions;
};

[[nodiscard]] Step step(State state, Observation observation,
                        std::uint64_t now_ns, const Policy& policy);

}  // namespace pelican::router::membership
