#include "router/router.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/fault.hpp"
#include "common/timer.hpp"

namespace pelican::router {

using membership::Move;
using membership::Phase;

namespace {

std::chrono::steady_clock::duration millis(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Whole milliseconds from now until `at`, rounded up (poll()'s unit).
int millis_until(std::chrono::steady_clock::time_point at) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      at - std::chrono::steady_clock::now());
  return static_cast<int>(std::clamp<std::chrono::milliseconds::rep>(
      left.count(), 0, std::numeric_limits<int>::max()));
}

double millis_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Reads `socket`'s next frame. A hedge's read races its `primary`: it
/// first waits up to `timeout_ms` (<= 0 = no limit) for either reply, and
/// gives up (std::runtime_error) when the primary's is readable.
std::vector<std::uint8_t> recv_reply(Socket& socket, const Socket* primary,
                                     double timeout_ms) {
  if (primary != nullptr) {
    const int wait_ms =
        timeout_ms > 0.0 ? static_cast<int>(std::ceil(timeout_ms)) : -1;
    const Socket* ready = first_readable(*primary, socket, wait_ms);
    if (ready == primary) {
      throw std::runtime_error("hedge abandoned: the primary answered");
    }
    if (ready == nullptr) {
      throw WireTimeout("recv timed out from " + socket.peer());
    }
  }
  return socket.recv_frame();
}

/// One request/reply on a fresh connection bounded by `timeout_ms`.
std::vector<std::uint8_t> round_trip(const Address& address,
                                     std::span<const std::uint8_t> frame,
                                     double timeout_ms) {
  Socket socket = Socket::connect_to(address);
  socket.set_io_timeout(timeout_ms);
  socket.send_frame(frame);
  return socket.recv_frame();
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(config),
      policy_{config.quarantine_after_timeouts, config.probe_interval_ms,
              config.quarantine_holddown_ms},
      partitioner_(config.partitions, config.virtual_nodes) {
  if (config_.pool_connections == 0) {
    throw std::invalid_argument("Router: pool_connections must be > 0");
  }
  using obs::Stage;
  wire_serialize_hist_ =
      &metrics_.histogram(obs::stage_metric_name(Stage::kWireSerialize));
  fanout_hist_ =
      &metrics_.histogram(obs::stage_metric_name(Stage::kRouterFanout));
  failover_hist_ =
      &metrics_.histogram(obs::stage_metric_name(Stage::kFailoverRetry));
  hedge_hist_ = &metrics_.histogram(obs::stage_metric_name(Stage::kHedge));
  // Registered eagerly: a counter that has never fired still exports as 0,
  // so dashboards (and the CI statsz snapshot) always carry the full set.
  hedges_counter_ = &metrics_.counter("router_hedges_total");
  hedge_wins_counter_ = &metrics_.counter("router_hedge_wins_total");
  retry_rounds_counter_ = &metrics_.counter("router_retry_rounds_total");
  reconnects_counter_ = &metrics_.counter("router_pool_reconnects_total");
  timeouts_counter_ = &metrics_.counter("router_request_timeouts_total");
  quarantines_counter_ = &metrics_.counter("router_quarantines_total");
  unquarantines_counter_ = &metrics_.counter("router_unquarantines_total");
  deadline_shed_counter_ =
      &metrics_.counter("router_deadline_shed_total");
  const std::string prefix = serve::kRouterMetricPrefix;
  rejected_counter_ = &metrics_.counter(prefix + serve::kRejectedMetric);
  shed_counter_ = &metrics_.counter(prefix + serve::kShedMetric);
  latency_hist_ = &metrics_.histogram(prefix + serve::kLatencyMetric);
  prober_ = std::thread([this] { probe_loop(); });
}

Router::~Router() {
  {
    const MutexLock lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::size_t Router::add_backend(const std::string& address) {
  // Health-check before admitting: a typo'd address must fail the add, not
  // the first serve. Throws WireError when unreachable.
  (void)decode_health_reply(round_trip(parse_address(address),
                                       encode_health(),
                                       config_.request_timeout_ms));
  const auto moved = observe(address, Observation::kJoin);
  if (!moved) {
    throw WireError("join of " + address +
                    " failed: its users could not be deployed there");
  }
  return *moved;
}

Router::Found Router::find_backend(const std::string& address) const {
  const MutexLock lock(mutex_);
  const auto it = members_.find(address);
  if (it == members_.end() || it->second.state.phase != Phase::kLive) {
    return {};
  }
  return {it->second.backend, it->second.state.strikes > 0};
}

std::vector<std::uint8_t> Router::exchange(Backend& backend,
                                           std::span<const std::uint8_t> frame,
                                           double timeout_ms, Hedge* hedge) {
  bool hedged = false;    // the hedge runs at most once per exchange
  bool answered = false;  // whether it answered
  for (int attempt = 0;; ++attempt) {
    Socket socket;
    bool from_pool = false;
    {
      MutexLock lock(backend.pool_mutex);
      while (!backend.closed && backend.idle.empty() &&
             backend.open_connections >= config_.pool_connections) {
        lock.wait(backend.pool_cv);
      }
      if (backend.closed) {
        throw WireError("backend left the fleet: " + backend.address);
      }
      if (!backend.idle.empty()) {
        socket = std::move(backend.idle.back());
        backend.idle.pop_back();
        from_pool = true;
      } else {
        ++backend.open_connections;  // reserve a slot, connect off-lock
      }
    }
    // Hands the slot back: a connection that finished its exchange parks
    // for reuse; any other is discarded, its state unknown.
    const auto release = [&](bool reuse) {
      const MutexLock lock(backend.pool_mutex);
      if (reuse && !backend.closed) {
        backend.idle.push_back(std::move(socket));
      } else {
        --backend.open_connections;  // discarded, or the pool is closed
      }
      backend.pool_cv.notify_one();
    };
    if (!from_pool) {
      try {
        socket = Socket::connect_to(backend.parsed);
      } catch (...) {
        release(false);
        throw;
      }
    }
    socket.set_io_timeout(timeout_ms);
    try {
      socket.send_frame(frame);
      const auto sent = std::chrono::steady_clock::now();
      // A hedge due after the primary's deadline never fires: the primary
      // times out first.
      if (hedge != nullptr && !hedged &&
          (timeout_ms <= 0.0 || hedge->at < sent + millis(timeout_ms)) &&
          !socket.wait_readable(millis_until(hedge->at))) {
        hedged = true;
        answered = hedge->fire(socket);
        if (answered && !socket.wait_readable(0)) {
          // The hedge's answer came first. The primary's reply is still
          // owed on this connection, so it never goes back to the pool.
          release(false);
          hedge->won = true;
          return {};
        }
        if (timeout_ms > 0.0) {
          // The primary keeps what is left of its deadline.
          socket.set_io_timeout(
              std::max(timeout_ms - millis_since(sent), 0.001));
        }
      }
      std::vector<std::uint8_t> reply = socket.recv_frame();
      socket.set_io_timeout(0);  // pooled connections are blocking at rest
      release(true);
      return reply;
    } catch (const WireError& error) {
      // Mid-exchange failure: the connection's state is unknown.
      release(false);
      if (answered) {
        hedge->won = true;  // the primary's readable reply broke
        return {};
      }
      // A deadline is never retried here — the caller owns the hung-engine
      // handling. A pooled connection, though, can rot while parked (the
      // engine restarted: first reuse sees EPIPE/ECONNRESET). That says
      // nothing about the backend NOW — retry once on a fresh connection
      // before declaring it dead. Every wire verb is idempotent (reads
      // trivially; deploy/publish re-install the same version; drain
      // re-requests a drain), and the failed send/recv never delivered a
      // reply, so re-issuing the frame is safe.
      if (from_pool && attempt == 0 &&
          dynamic_cast<const WireTimeout*>(&error) == nullptr) {
        reconnects_counter_->add();
        continue;
      }
      throw;
    } catch (...) {
      release(false);
      throw;
    }
  }
}

std::vector<serve::PredictResponse> Router::hedge_read(
    Backend& target, std::span<const serve::PredictRequest> batch,
    std::span<const std::uint8_t> frame, double timeout_ms,
    const Socket& primary) {
  // The target may not hold these users yet: re-deploy them from the
  // ledger first. Deploys are idempotent, and the target pulls the SAME
  // (user, version) artifacts from the shared store — which is why the
  // hedged answer is bit-identical to the primary's and taking whichever
  // comes first is sound.
  LedgerSlice users;
  {
    const MutexLock lock(mutex_);
    for (const serve::PredictRequest& request : batch) {
      const std::uint32_t user = request.user_id;
      if (std::ranges::find(users, user, &DeployCommand::user_id) !=
          users.end()) {
        continue;
      }
      const auto it = ledger_.find(user);
      if (it == ledger_.end()) {
        throw WireError("hedge: user " + std::to_string(user) +
                        " not in ledger");
      }
      users.push_back(it->second);
    }
  }
  Socket socket = Socket::connect_to(target.parsed);
  socket.set_io_timeout(timeout_ms);
  deploy_over(socket, users, &primary, timeout_ms);
  socket.send_frame(frame);
  auto answers =
      decode_predict_replies(recv_reply(socket, &primary, timeout_ms));
  if (answers.size() != batch.size()) {
    throw WireError("predict reply count mismatch from " + target.address);
  }
  return answers;
}

void Router::deploy_over(Socket& socket, const LedgerSlice& users,
                         const Socket* primary, double timeout_ms) {
  for (const DeployCommand& command : users) {
    socket.send_frame(encode_deploy(command));
    const Ack ack = decode_ack(recv_reply(socket, primary, timeout_ms));
    if (!ack.ok) {
      throw std::runtime_error("deploy of user " +
                               std::to_string(command.user_id) +
                               " refused: " + ack.message);
    }
  }
}

std::optional<std::size_t> Router::observe(const std::string& address,
                                           Observation observation,
                                           std::uint64_t trace_id) {
  membership::Step step;
  {
    const MutexLock lock(mutex_);
    step = step_of(address, observation);
    if (step.actions.move == Move::kNone) set_state(address, step.state);
  }
  std::optional<std::size_t> moved = 0;
  Failures failures;
  if (step.actions.move != Move::kNone) {
    const MutexLock transition(transition_mutex_);
    moved = transit(address, observation, step, failures);
  }
  // Membership counters and events come from here only, and only for a
  // step that took effect.
  if (moved && step.actions.count_timeout) timeouts_counter_->add();
  if (moved && step.actions.journal) {
    const bool out = *step.actions.journal == obs::EventType::kQuarantine;
    const bool in = *step.actions.journal == obs::EventType::kUnquarantine;
    if (out) quarantines_counter_->add();
    if (in) unquarantines_counter_->add();
    const char* detail =
        out  ? "suspected hung; partitions moved, watching for recovery"
        : in ? "probe answered past hold-down; partitions restored"
             : "transport failure; partitions moved";
    events_.emit(*step.actions.journal, address, detail, trace_id);
  }
  // Seen during the transition's deploys, observed only now that it is
  // over: a cascading failure runs a transition of its own.
  for (const auto& [target, failure] : failures) {
    (void)observe(target, failure, trace_id);
  }
  if (moved && step.actions.probe) {
    const bool ok = probe_backend(parse_address(address));
    (void)observe(address, ok ? Observation::kProbeOk : Observation::kProbeFail,
                  trace_id);
  }
  return moved;
}

membership::Step Router::step_of(const std::string& address,
                                 Observation observation) const {
  const auto it = members_.find(address);
  return membership::step(
      it == members_.end() ? membership::State{} : it->second.state,
      observation, obs::now_ns(), policy_);
}

void Router::set_state(const std::string& address,
                       const membership::State& state) {
  if (state.phase == Phase::kAbsent) {
    members_.erase(address);
    return;
  }
  Member& member = members_[address];
  if (state.phase == Phase::kLive && member.state.phase != Phase::kLive) {
    member.backend = std::make_shared<Backend>(address);
  }
  member.state = state;
}

std::optional<std::size_t> Router::transit(const std::string& address,
                                           Observation observation,
                                           membership::Step& step,
                                           Failures& failures) {
  bool in = false;
  std::optional<Partitioner> next;
  std::map<std::string, LedgerSlice> moving;
  std::shared_ptr<Backend> leaver;
  std::size_t moved = 0;
  {
    const MutexLock lock(mutex_);
    // Stepped again: another transition may have changed the row since.
    step = step_of(address, observation);
    if (step.actions.move == Move::kNone) {
      set_state(address, step.state);
      return 0;
    }
    in = step.actions.move == Move::kIn;
    next.emplace(partitioner_);
    moved = in ? next->add_backend(address) : next->remove_backend(address);
    moving = moved_users(*next);
    if (!in) {
      // A leaving backend stops taking reads at once; those it still owns
      // wait in serve() until the commit below.
      leaver = members_.at(address).backend;
      set_state(address, step.state);
      leaving_ = address;
    }
  }
  if (leaver) close_pool(*leaver);
  // Deploy first: the moved users are on their next owners before any
  // read is routed there. A rejoiner gets every user it takes back, which
  // also reconciles deploys and publishes it missed while out. A join or
  // rejoin that cannot deploy its users does not happen.
  bool deployed = true;
  for (const auto& [owner, users] : moving) {
    deployed = redeploy(owner, users, failures) && deployed;
  }
  if (in && !deployed) return std::nullopt;
  {
    const MutexLock lock(mutex_);
    partitioner_ = std::move(*next);
    if (in) set_state(address, step.state);
    leaving_.clear();
  }
  moved_cv_.notify_all();
  return moved;
}

std::map<std::string, Router::LedgerSlice> Router::moved_users(
    const Partitioner& next) const {
  std::map<std::string, LedgerSlice> moving;
  if (next.backend_count() == 0) return moving;  // nowhere to go
  const bool owned = partitioner_.backend_count() > 0;
  for (const auto& [user, record] : ledger_) {
    const std::string& owner = next.owner_of(user);
    if (!owned || owner != partitioner_.owner_of(user)) {
      moving[owner].push_back(record);
    }
  }
  return moving;
}

bool Router::redeploy(const std::string& address, const LedgerSlice& users,
                      Failures& failures) {
  if (users.empty()) return true;
  try {
    Socket socket = Socket::connect_to(parse_address(address));
    socket.set_io_timeout(config_.request_timeout_ms);
    deploy_over(socket, users);
    return true;
  } catch (const WireTimeout&) {
    failures.emplace_back(address, Observation::kTimeout);
  } catch (const WireError&) {
    failures.emplace_back(address, Observation::kTransportError);
  } catch (const std::exception&) {
    // Refused: the engine answered, so there is nothing to observe.
  }
  return false;
}

bool Router::probe_backend(const Address& address) {
  try {
    (void)decode_health_reply(
        round_trip(address, encode_health(), config_.probe_timeout_ms));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void Router::probe_loop() {
  for (;;) {
    {
      MutexLock lock(probe_mutex_);
      const auto wake =
          std::chrono::steady_clock::now() + millis(config_.probe_interval_ms);
      while (!probe_stop_) {
        if (!lock.wait_until(probe_cv_, wake)) break;  // interval elapsed
      }
      if (probe_stop_) return;
    }
    for (const auto& address : quarantined_backends()) {
      (void)observe(address, Observation::kRecoveryTick);
    }
  }
}

void Router::close_pool(Backend& backend) {
  const MutexLock lock(backend.pool_mutex);
  backend.closed = true;
  backend.open_connections -= backend.idle.size();
  backend.idle.clear();
  backend.pool_cv.notify_all();
}

std::string Router::hedge_candidate(const std::string& owner) const {
  const auto live = live_backends();  // sorted
  if (live.size() < 2) return {};
  auto it = std::upper_bound(live.begin(), live.end(), owner);
  if (it == live.end()) it = live.begin();
  return *it == owner ? std::string{} : *it;
}

double Router::resolve_hedge_delay() const {
  if (config_.hedge_delay_ms > 0.0) return config_.hedge_delay_ms;
  if (config_.hedge_delay_ms < 0.0 || config_.hedge_budget_fraction <= 0.0) {
    return -1.0;  // hedging disabled
  }
  // Auto mode: hedge when a fan-out exceeds its own observed p99 — the
  // classic tail-at-scale delay. Until the histogram has seen enough
  // round trips to mean anything, fall back to a quarter of the request
  // timeout (hedges stay rare either way, and the budget caps them).
  constexpr std::uint64_t kMinSamples = 64;
  if (fanout_hist_->count() >= kMinSamples) {
    return std::max(config_.hedge_min_delay_ms,
                    fanout_hist_->percentile(99.0));
  }
  const double fallback = config_.request_timeout_ms > 0.0
                              ? config_.request_timeout_ms / 4.0
                              : 500.0;
  return std::max(config_.hedge_min_delay_ms, fallback);
}

Ack Router::admin_to_owner(std::uint32_t user,
                           const std::vector<std::uint8_t>& frame) {
  // One failover retry: the first attempt discovers a failed owner at most
  // once, the second runs against the repartitioned fleet.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string owner;
    Observation failure = Observation::kTransportError;
    {
      // Held from the owner lookup to the ack, so no transition moves the
      // user in between. Under it every owner is live: a transition
      // commits before it lets go.
      const MutexLock transition(transition_mutex_);
      std::shared_ptr<Backend> backend;
      {
        const MutexLock lock(mutex_);
        if (partitioner_.backend_count() == 0) {
          throw WireError("no live backends");
        }
        owner = partitioner_.owner_of(user);
        backend = members_.at(owner).backend;
      }
      try {
        return decode_ack(
            exchange(*backend, frame, config_.request_timeout_ms));
      } catch (const WireTimeout&) {
        failure = Observation::kTimeout;
      } catch (const WireError&) {
      }
    }
    (void)observe(owner, failure);
  }
  throw WireError("no live backend for user " + std::to_string(user));
}

std::optional<DeployCommand> Router::edit_record(std::uint32_t user,
                                                const RecordEdit& edit) {
  const MutexLock transition(transition_mutex_);
  const MutexLock lock(mutex_);
  std::optional<DeployCommand> record;
  if (const auto it = ledger_.find(user); it != ledger_.end()) {
    record = it->second;
  }
  std::optional<DeployCommand> previous = record;
  edit(record);  // under the locks: read, edit and write are one step
  if (record.has_value()) {
    ledger_[user] = *record;
  } else {
    ledger_.erase(user);
  }
  return previous;
}

Ack Router::update_owner(std::uint32_t user,
                         const std::vector<std::uint8_t>& frame,
                         const RecordEdit& edit) {
  // Ledger first: any transition from now on deploys the edited record. A
  // failure restores the previous record (or none), or failover would
  // later re-create what the engine refused or never received.
  const std::optional<DeployCommand> previous = edit_record(user, edit);
  const auto restore = [&] {
    (void)edit_record(user, [&](std::optional<DeployCommand>& record) {
      record = previous;
    });
  };
  Ack ack;
  try {
    ack = admin_to_owner(user, frame);
  } catch (...) {
    restore();
    throw;
  }
  if (!ack.ok) restore();
  return ack;
}

void Router::deploy(std::uint32_t user, std::uint32_t version,
                    const mobility::EncodingSpec& spec, double temperature) {
  const DeployCommand command{user, version, temperature, spec};
  const Ack ack = update_owner(
      user, encode_deploy(command),
      [&](std::optional<DeployCommand>& record) { record = command; });
  if (!ack.ok) {
    throw std::runtime_error("Router: deploy of user " + std::to_string(user) +
                             " refused: " + ack.message);
  }
}

void Router::publish(std::uint32_t user, std::uint32_t version) {
  const Ack ack = update_owner(user, encode_publish({user, version}),
                               [&](std::optional<DeployCommand>& record) {
                                 if (record) record->version = version;
                               });
  if (!ack.ok) {
    throw std::runtime_error("Router: publish of user " +
                             std::to_string(user) + " v" +
                             std::to_string(version) +
                             " refused: " + ack.message);
  }
  events_.emit(obs::EventType::kPublish, "user " + std::to_string(user),
               "v" + std::to_string(version) + " live (stall-free swap)");
}

std::vector<serve::PredictResponse> Router::serve(
    std::span<const serve::PredictRequest> requests) {
  const Stopwatch watch;
  const bool instrument = instrumentation_enabled();

  // One trace per serve() call: requests arriving untraced are stamped with
  // a fresh id (on a local copy — the caller's span is const); requests
  // already carrying ids keep them, and the router's spans are recorded
  // under every distinct id in the batch (bounded — a batch is one logical
  // call, so distinct ids are rare).
  std::vector<std::uint64_t> trace_ids;
  std::vector<serve::PredictRequest> stamped;
  std::span<const serve::PredictRequest> reqs = requests;
  if (instrument && !requests.empty()) {
    constexpr std::size_t kMaxDistinctIds = 16;
    for (const auto& request : requests) {
      if (request.trace_id == 0) continue;
      if (std::find(trace_ids.begin(), trace_ids.end(), request.trace_id) ==
              trace_ids.end() &&
          trace_ids.size() < kMaxDistinctIds) {
        trace_ids.push_back(request.trace_id);
      }
    }
    if (trace_ids.empty()) {
      const std::uint64_t trace = obs::new_trace_id();
      stamped.assign(requests.begin(), requests.end());
      for (auto& request : stamped) request.trace_id = trace;
      reqs = stamped;
      trace_ids.push_back(trace);
    }
  }
  std::vector<obs::Span> spans;  // router-side spans, committed at the end
  Mutex spans_mutex;             // forwarding threads append concurrently

  std::vector<serve::PredictResponse> responses(reqs.size());
  std::vector<std::size_t> remaining(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) remaining[i] = i;

  const double hedge_delay = resolve_hedge_delay();

  std::size_t attempts = 0;
  {
    const MutexLock lock(mutex_);
    attempts = partitioner_.backend_count() + 1;
  }

  std::size_t round = 0;
  while (!remaining.empty() && attempts-- > 0) {
    const std::uint64_t round_start_ns = instrument ? obs::now_ns() : 0;

    // Shed requests whose deadline budget is already gone: forwarding them
    // would compute answers nobody reads (the engine would shed them at its
    // admission anyway — this saves the wire trip too).
    {
      const double elapsed_ms = watch.milliseconds();
      const std::size_t shed = std::erase_if(remaining, [&](std::size_t i) {
        if (reqs[i].deadline_ms <= 0.0 || elapsed_ms < reqs[i].deadline_ms) {
          return false;
        }
        responses[i].user_id = reqs[i].user_id;
        responses[i].rejected = true;
        return true;
      });
      if (shed > 0) deadline_shed_counter_->add(shed);
      if (shed > 0 && instrument) {
        // One journal entry per BURST, not per request — sheds cluster
        // (a stall expires a whole round at once) and the counter above
        // already carries the exact total.
        events_.emit(obs::EventType::kDeadlineShed, "router",
                     std::to_string(shed) + " of " +
                         std::to_string(shed + remaining.size()) +
                         " requests past deadline in round " +
                         std::to_string(round),
                     trace_ids.empty() ? 0 : trace_ids.front());
      }
      if (remaining.empty()) break;
    }

    // Group the outstanding requests by owning backend, in the order the
    // owners first appear. A fleet has a handful of backends, so a linear
    // search over the round's owners finds a request's group.
    struct Group {
      std::string owner;
      std::vector<std::size_t> indices;
      bool failed = false;  ///< retried next round
    };
    std::vector<Group> fan_out;
    {
      MutexLock lock(mutex_);
      // A read whose owner is leaving waits until its users are deployed
      // on their new owners and the partitions have moved.
      while (!leaving_.empty()) {
        bool waits = false;
        for (const std::size_t i : remaining) {
          waits = waits || partitioner_.owner_of(reqs[i].user_id) == leaving_;
        }
        if (!waits) break;
        lock.wait(moved_cv_);
      }
      if (partitioner_.backend_count() == 0) break;
      for (const std::size_t i : remaining) {
        const std::string& owner = partitioner_.owner_of(reqs[i].user_id);
        auto group = std::ranges::find(fan_out, owner, &Group::owner);
        if (group == fan_out.end()) {
          group = fan_out.insert(fan_out.end(), Group{owner, {}});
        }
        group->indices.push_back(i);
      }
    }

    // A fan-out over more than one backend forwards each group from a
    // short-lived thread of its own; a single group (every batch-1 read)
    // runs in the caller's thread. Deliberately NOT ThreadPool::global():
    // these bodies BLOCK on socket I/O, which would park compute workers
    // the in-process engine path and attack scoring share, and
    // parallel_for serializes concurrent submissions — two client threads
    // in serve() would serialize their network waits.
    auto forward = [&](Group& group) {
      const std::string& address = group.owner;
      const std::vector<std::size_t>& indices = group.indices;
      const auto [backend, struck] = find_backend(address);
      if (backend == nullptr) {
        group.failed = true;
        return;
      }
      // Build the batch with DECREMENTED budgets: the engine's admission
      // check must see what is left after the router's own time, not the
      // caller's original allowance.
      std::vector<serve::PredictRequest> batch;
      batch.reserve(indices.size());
      double max_remaining_ms = 0.0;
      {
        const double elapsed_ms = watch.milliseconds();
        for (const std::size_t i : indices) {
          serve::PredictRequest request = reqs[i];
          if (request.deadline_ms > 0.0) {
            request.deadline_ms =
                std::max(0.001, request.deadline_ms - elapsed_ms);
            max_remaining_ms = std::max(max_remaining_ms, request.deadline_ms);
          }
          batch.push_back(std::move(request));
        }
      }
      // The exchange deadline: the configured timeout, tightened to the
      // batch's largest remaining budget (no point waiting for answers
      // whose readers have all given up).
      double timeout_ms = config_.request_timeout_ms;
      if (max_remaining_ms > 0.0) {
        timeout_ms = timeout_ms <= 0.0
                         ? max_remaining_ms
                         : std::min(timeout_ms, max_remaining_ms);
      }

      {
        auto& injector = fault::Injector::global();
        if (injector.active()) {
          injector.sleep_for(injector.decide("router.exchange", address));
        }
      }

      const std::uint64_t encode_start_ns = instrument ? obs::now_ns() : 0;
      const auto frame = encode_predict_batch(batch);
      const std::uint64_t sent_ns = instrument ? obs::now_ns() : 0;
      forwards_.fetch_add(1, std::memory_order_relaxed);

      // The exchange polls for the reply until the hedge delay; if it is
      // late, the hedge fires from this thread when the budget allows
      // another duplicate and the fleet has a second choice.
      std::vector<serve::PredictResponse> answers;
      std::string hedge_target;
      std::uint64_t hedge_start_ns = 0;
      Hedge hedge;
      hedge.at = std::chrono::steady_clock::now() + millis(hedge_delay);
      hedge.fire = [&](const Socket& primary) {
        const std::uint64_t fired =
            hedges_fired_.load(std::memory_order_relaxed);
        const std::uint64_t total = forwards_.load(std::memory_order_relaxed);
        if (static_cast<double>(fired + 1) >
            config_.hedge_budget_fraction * static_cast<double>(total)) {
          return false;
        }
        const std::string target = hedge_candidate(address);
        const auto target_backend =
            target.empty() ? nullptr : find_backend(target).backend;
        if (target_backend == nullptr) return false;
        hedge_target = target;
        hedge_start_ns = obs::now_ns();
        hedges_fired_.fetch_add(1, std::memory_order_relaxed);
        hedges_counter_->add();
        try {
          answers =
              hedge_read(*target_backend, batch, frame, timeout_ms, primary);
          (void)observe(target, Observation::kDataOk);
          return true;
        } catch (const std::exception&) {
          // Hedge failures never fail the TARGET over — it was drafted in,
          // not proven guilty. The primary's read goes on; it is readable
          // already when it ended the hedge.
          return false;
        }
      };

      bool primary_timeout = false;
      bool primary_failed = false;
      try {
        const auto reply = exchange(*backend, frame, timeout_ms,
                                    hedge_delay >= 0.0 ? &hedge : nullptr);
        if (!hedge.won) {
          answers = decode_predict_replies(reply);
          if (answers.size() != indices.size()) {
            throw WireError("predict reply count mismatch from " + address);
          }
        }
      } catch (const WireTimeout&) {
        primary_timeout = true;
      } catch (const std::exception&) {
        primary_failed = true;
      }

      if (primary_timeout || primary_failed) {
        group.failed = true;
      } else {
        for (std::size_t j = 0; j < indices.size(); ++j) {
          responses[indices[j]] = std::move(answers[j]);
        }
      }

      if (instrument) {
        const std::uint64_t done_ns = obs::now_ns();
        const MutexLock lock(spans_mutex);
        spans.push_back({obs::Stage::kWireSerialize, encode_start_ns,
                         sent_ns - encode_start_ns});
        spans.push_back(
            {obs::Stage::kRouterFanout, sent_ns, done_ns - sent_ns});
        if (!hedge_target.empty()) {
          spans.push_back(
              {obs::Stage::kHedge, hedge_start_ns, done_ns - hedge_start_ns});
        }
      }

      // Post-mortem on the primary path, as membership observations. A
      // timeout (or losing the hedge race) is the HUNG-engine signal, a
      // transport error the dead-engine one. Only a struck backend has
      // anything for a data-plane ok to clear, so the common read skips it.
      const std::uint64_t group_trace =
          trace_ids.empty() ? 0 : trace_ids.front();
      if (hedge.won) {
        hedge_wins_counter_->add();
        if (instrument) {
          events_.emit(obs::EventType::kHedgeWin, hedge_target,
                       "duplicate read beat " + address, group_trace);
        }
      }
      if (primary_timeout || hedge.won) {
        (void)observe(address, Observation::kTimeout, group_trace);
      } else if (primary_failed) {
        (void)observe(address, Observation::kTransportError, group_trace);
      } else if (struck) {
        (void)observe(address, Observation::kDataOk);
      }
    };
    if (fan_out.size() == 1) {
      forward(fan_out.front());
    } else {
      std::vector<std::thread> threads;
      threads.reserve(fan_out.size());
      for (Group& group : fan_out) {
        threads.emplace_back(forward, std::ref(group));
      }
      for (auto& thread : threads) thread.join();
    }

    remaining.clear();
    for (const Group& group : fan_out) {
      if (!group.failed) continue;
      remaining.insert(remaining.end(), group.indices.begin(),
                       group.indices.end());
    }
    if (instrument && round > 0) {
      // Rounds past the first exist only because a backend failed: the
      // whole round is failover work, visible as its own span.
      spans.push_back({obs::Stage::kFailoverRetry, round_start_ns,
                       obs::now_ns() - round_start_ns});
    }
    if (!remaining.empty() && attempts > 0) {
      // Exponential backoff between retry rounds: the repartition already
      // happened synchronously, so this only paces a flapping fleet, never
      // the first failover.
      retry_rounds_counter_->add();
      const double backoff_ms =
          std::min(config_.retry_backoff_max_ms,
                   config_.retry_backoff_base_ms *
                       static_cast<double>(1ULL << std::min<std::size_t>(
                                               round, 10)));
      if (backoff_ms > 0.0 && round > 0) {
        std::this_thread::sleep_for(millis(backoff_ms));
      }
    }
    ++round;
  }

  // Requests that survived every retry round with no live owner.
  for (const std::size_t i : remaining) {
    responses[i].user_id = reqs[i].user_id;
    responses[i].rejected = true;
  }

  // Router-side accounting: end-to-end latency including wire + failover.
  // (The engines' own view of the same rows arrives via fleet_metrics().)
  const double latency_ms = watch.milliseconds();
  for (auto& response : responses) {
    response.latency_ms = latency_ms;
    if (response.ok) {
      latency_hist_->observe(latency_ms);
    } else if (response.rejected) {
      shed_counter_->add();
    } else {
      rejected_counter_->add();
    }
  }
  if (instrument && !spans.empty()) {
    for (const obs::Span& span : spans) {
      switch (span.stage) {
        case obs::Stage::kWireSerialize:
          wire_serialize_hist_->observe(span.duration_ms());
          break;
        case obs::Stage::kRouterFanout:
          fanout_hist_->observe(span.duration_ms());
          break;
        case obs::Stage::kFailoverRetry:
          failover_hist_->observe(span.duration_ms());
          break;
        case obs::Stage::kHedge:
          hedge_hist_->observe(span.duration_ms());
          break;
        default:
          break;
      }
    }
    for (const std::uint64_t id : trace_ids) {
      traces_.record(id, spans);
      traces_.finish(id, latency_ms);
    }
  }
  return responses;
}

void Router::poll_fleet(
    std::span<const std::uint8_t> frame,
    const std::function<void(const std::string&,
                             std::span<const std::uint8_t>)>& on_reply) {
  std::vector<std::shared_ptr<Backend>> live;
  {
    const MutexLock lock(mutex_);
    for (const auto& [address, member] : members_) {
      if (member.state.phase == Phase::kLive) live.push_back(member.backend);
    }
  }
  for (const auto& backend : live) {
    Observation failure = Observation::kTransportError;
    try {
      on_reply(backend->address,
               exchange(*backend, frame, config_.request_timeout_ms));
      continue;
    } catch (const WireTimeout&) {
      failure = Observation::kTimeout;
    } catch (const std::exception&) {
    }
    (void)observe(backend->address, failure);
  }
}

Router::FleetMetrics Router::fleet_metrics() {
  FleetMetrics out;
  poll_fleet(encode_metrics(), [&](const std::string& address,
                                   std::span<const std::uint8_t> reply) {
    EngineMetricsReport report = decode_metrics_reply(reply);
    for (obs::TraceRecord& rec : report.traces) rec.source = address;
    obs::merge_state(out.registry, report.registry);
    out.traces.insert(out.traces.end(), report.traces.begin(),
                      report.traces.end());
    obs::merge_events(out.events, report.events, address);
    out.engines.emplace_back(address, std::move(report));
  });
  out.stats = serve::ServerStats(out.registry).snapshot();
  // The router's own side of the traces: its registry folds into the fleet
  // registry (same fixed buckets — still exact), and its journal records
  // join the pool tagged "router" so statsz can pair them with the engine
  // records sharing their trace ids.
  obs::merge_state(out.registry, metrics_.state());
  for (obs::TraceRecord rec : traces_.journal()) {
    rec.source = "router";
    out.traces.push_back(std::move(rec));
  }
  // The event journals interleave by wall clock (events carry unix_ms
  // exactly so cross-process ordering is meaningful).
  obs::merge_events(out.events, events_.snapshot(), "router");
  obs::sort_events(out.events);
  return out;
}

std::vector<std::pair<std::string, HealthReply>> Router::fleet_health() {
  std::vector<std::pair<std::string, HealthReply>> out;
  poll_fleet(encode_health(), [&](const std::string& address,
                                  std::span<const std::uint8_t> reply) {
    out.emplace_back(address, decode_health_reply(reply));
  });
  return out;
}

EngineMetricsReport Router::self_report() {
  EngineMetricsReport report;
  report.registry = metrics_.state();
  report.stats =
      serve::ServerStats(report.registry, serve::kRouterMetricPrefix).state();
  report.traces = traces_.journal();
  report.events = events_.snapshot();
  return report;
}

void Router::drain_fleet() {
  // Every engine, live or quarantined, is offered a graceful exit on a
  // fresh connection. Bounded by drain_timeout_ms: a wedged engine is
  // abandoned, not waited on (the drain contract in wire.hpp).
  std::vector<std::shared_ptr<Backend>> members;
  {
    const MutexLock lock(mutex_);
    for (const auto& [address, member] : members_) {
      members.push_back(member.backend);
    }
  }
  for (const auto& backend : members) {
    try {
      (void)decode_ack(round_trip(backend->parsed, encode_drain(),
                                  config_.drain_timeout_ms));
    } catch (const std::exception&) {
    }
  }
  // The fleet is gone by contract; leave the router in a defined state.
  // A teardown, not a membership change: no events, no counters.
  const MutexLock transition(transition_mutex_);
  const MutexLock lock(mutex_);
  for (auto& [address, member] : members_) {
    close_pool(*member.backend);
    (void)partitioner_.remove_backend(address);
  }
  members_.clear();
}

std::vector<std::string> Router::backends_in(membership::Phase phase) const {
  std::vector<std::string> out;
  const MutexLock lock(mutex_);
  for (const auto& [address, member] : members_) {
    if (member.state.phase == phase) out.push_back(address);
  }
  return out;
}

std::vector<std::string> Router::live_backends() const {
  return backends_in(Phase::kLive);
}

std::vector<std::string> Router::quarantined_backends() const {
  return backends_in(Phase::kQuarantined);
}

std::string Router::owner_of(std::uint32_t user) const {
  const MutexLock lock(mutex_);
  return partitioner_.owner_of(user);
}

std::size_t Router::deployed_users() const {
  const MutexLock lock(mutex_);
  return ledger_.size();
}

}  // namespace pelican::router
