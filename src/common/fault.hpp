// Deterministic, seeded fault injection for chaos testing.
//
// A process-wide Injector holds an ordered list of Rules. Instrumented code
// ("hook sites" — today: router/socket frame I/O, "router.exchange" before
// each group of a Router::serve() round is sent, and
// EngineWorker::handle_frame) asks `decide(site, peer)` what, if anything,
// should go wrong right here, and applies the verdict itself: sleep for a
// delay/stall, drop the connection, or truncate the frame mid-write. The
// injector only ever *decides*; the hook owns the mechanics, so this layer-0
// component knows nothing about sockets or wire frames.
//
// Rules match by substring on the site name ("socket.send",
// "engine.handle.predict_batch", ...) and on a peer label (a wire address —
// empty matches everything), and fire deterministically: each rule carries
// its own SplitMix64-derived RNG stream (seeded from the injector seed and
// the rule's position), a probability, a number of matches to skip first
// (`after`), and a maximum number of firings (`count`). The same spec + the
// same sequence of decide() calls ⇒ the same faults, which is what makes
// chaos tests reproducible and their failures bisectable.
//
// Configuration is either programmatic (tests) or via the PELICAN_FAULT
// environment variable, read once on first use:
//
//   PELICAN_FAULT='seed=42;rule=site:engine.handle,action:stall,ms:30000;
//                  rule=site:socket.send,peer:e1,action:drop,p:0.1,count:2'
//
// Rules are separated by ';' or '|' (the latter for contexts where ';' is a
// list separator, e.g. ctest ENVIRONMENT properties); keys within a rule by
// ','. Unknown keys or actions throw std::invalid_argument so a typo'd spec
// fails the run instead of silently injecting nothing.
//
// Stalls are interruptible: clear()/configure() bump an epoch and every
// in-flight sleep re-checks it every few milliseconds, so a test can stall
// an engine "forever", observe the quarantine, then lift the fault and
// watch recovery — without waiting out the stall.
//
// When no rules are loaded, the hot-path cost is one relaxed atomic load
// (`active()` is false and hooks return immediately).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"

namespace pelican::fault {

enum class Action : std::uint8_t {
  kNone = 0,
  kDelay,     ///< sleep `delay_ms`, then proceed normally
  kStall,     ///< like kDelay but semantically "hung": default 60 s
  kDrop,      ///< the hook severs the connection (typed transport error)
  kTruncate,  ///< the hook writes a partial frame, then severs
};

[[nodiscard]] constexpr const char* to_string(Action action) noexcept {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kDelay: return "delay";
    case Action::kStall: return "stall";
    case Action::kDrop: return "drop";
    case Action::kTruncate: return "truncate";
  }
  return "?";
}

struct Rule {
  /// Substring match against the hook site name; empty matches every site.
  std::string site;
  /// Substring match against the hook's peer label (a wire address, or an
  /// engine's own listen address for engine-side hooks); empty matches all.
  std::string peer;
  Action action = Action::kNone;
  /// Sleep duration for kDelay/kStall (kStall defaults to 60000 when the
  /// spec gives no ms).
  double delay_ms = 0.0;
  /// Firing probability per matching call, decided by the rule's own
  /// deterministic stream. 1.0 = always.
  double probability = 1.0;
  /// Skip the first `after` matching calls before firing is considered.
  std::uint64_t after = 0;
  /// Stop firing after this many firings; 0 = unlimited.
  std::uint64_t max_count = 0;
};

/// What a hook should do right now. delay_ms is set for kDelay/kStall.
struct Decision {
  Action action = Action::kNone;
  double delay_ms = 0.0;
};

class Injector {
 public:
  /// The process-wide injector. First use reads $PELICAN_FAULT (when set)
  /// so fork+exec'd engine daemons configure themselves with zero plumbing.
  [[nodiscard]] static Injector& global();

  /// True iff any rule is loaded — the hooks' zero-cost fast-path gate.
  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Replaces all rules from a spec string (grammar in the header comment).
  /// Throws std::invalid_argument on malformed specs.
  void configure(const std::string& spec);
  /// Programmatic configuration (tests). Per-rule streams derive from
  /// `seed` and the rule index.
  void configure(std::vector<Rule> rules, std::uint64_t seed);
  /// Drops every rule and releases any in-flight stall.
  void clear();

  /// First matching rule that fires wins. kNone when nothing fires.
  [[nodiscard]] Decision decide(std::string_view site, std::string_view peer);

  /// Sleeps out a kDelay/kStall decision in small slices, returning early
  /// if the configuration epoch changes (clear()/configure() lift stalls).
  void sleep_for(const Decision& decision);

  /// Total firings of rule `index` so far (test observability).
  [[nodiscard]] std::uint64_t fired(std::size_t index) const;

 private:
  struct RuleState {
    Rule rule;
    Rng rng;
    std::uint64_t matches = 0;
    std::uint64_t firings = 0;
    explicit RuleState(Rule r, std::uint64_t stream_seed)
        : rule(std::move(r)), rng(stream_seed) {}
  };

  mutable Mutex mutex_;
  std::vector<RuleState> rules_ PELICAN_GUARDED_BY(mutex_);
  std::atomic<bool> active_{false};
  /// Bumped by configure()/clear(); in-flight sleeps watch it.
  std::atomic<std::uint64_t> epoch_{0};
};

/// Parses a PELICAN_FAULT spec into rules + seed (exposed for unit tests).
struct ParsedSpec {
  std::vector<Rule> rules;
  std::uint64_t seed = 0;
};
[[nodiscard]] ParsedSpec parse_fault_spec(const std::string& spec);

}  // namespace pelican::fault
