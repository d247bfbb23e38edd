#include "router/router.hpp"

#include <algorithm>
#include <array>
#include <cmath>
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
using Clock = std::chrono::steady_clock;

namespace {

std::chrono::steady_clock::duration millis(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Whole milliseconds from now until `at`, rounded up (poll()'s unit);
/// -1 (no limit) for Clock::time_point::max().
int millis_until(Clock::time_point at) {
  if (at == Clock::time_point::max()) return -1;
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(at - Clock::now());
  return static_cast<int>(std::clamp<std::chrono::milliseconds::rep>(
      left.count(), 0, std::numeric_limits<int>::max()));
}

/// Reads `socket`'s next frame. A hedge's read races its `primary`: it
/// first waits up to `timeout_ms` (<= 0 = no limit) for either reply, and
/// gives up (std::runtime_error) when the primary's is readable.
std::vector<std::uint8_t> recv_reply(Socket& socket, const Socket* primary,
                                     double timeout_ms) {
  if (primary != nullptr) {
    const int wait_ms =
        timeout_ms > 0.0 ? static_cast<int>(std::ceil(timeout_ms)) : -1;
    const std::array<const Socket*, 2> both{primary, &socket};
    const std::size_t ready = first_readable(both, wait_ms);
    if (ready == 0) {
      throw std::runtime_error("hedge abandoned: the primary answered");
    }
    if (ready == both.size()) {
      throw WireTimeout("recv timed out from " + socket.peer());
    }
  }
  return socket.recv_frame();
}

/// Writes a batch's `answers` from `from` into `responses`, at the
/// batch's request indices `order`.
void scatter(std::vector<serve::PredictResponse> answers,
             std::span<const std::size_t> order,
             std::span<serve::PredictResponse> responses,
             const std::string& from) {
  if (answers.size() != order.size()) {
    throw WireError("predict reply count mismatch from " + from);
  }
  for (std::size_t j = 0; j < order.size(); ++j) {
    responses[order[j]] = std::move(answers[j]);
  }
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

/// A slot of a backend's pool and its connection. release(true) parks the
/// connection for reuse; release(false), or the lease's end, discards it
/// and frees the slot.
struct Router::Lease {
  Lease() = default;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() { release(false); }

  /// Waits for an idle connection or room to open one. Throws WireError
  /// when the pool closes or the connect fails.
  void acquire(Backend& pool, std::size_t pool_connections) {
    {
      MutexLock lock(pool.pool_mutex);
      while (!pool.closed && pool.idle.empty() &&
             pool.open_connections >= pool_connections) {
        lock.wait(pool.pool_cv);
      }
      if (pool.closed) {
        throw WireError("backend left the fleet: " + pool.address);
      }
      backend = &pool;
      pooled = !pool.idle.empty();
      if (pooled) {
        socket = std::move(pool.idle.back());
        pool.idle.pop_back();
      } else {
        ++pool.open_connections;  // reserve a slot, connect off-lock
      }
    }
    if (!pooled) socket = Socket::connect_to(pool.parsed);
  }

  void release(bool reuse) {
    if (backend == nullptr) return;
    {
      const MutexLock lock(backend->pool_mutex);
      if (reuse && !backend->closed) {
        backend->idle.push_back(std::move(socket));
      } else {
        --backend->open_connections;  // discarded, or the pool is closed
      }
      backend->pool_cv.notify_one();
    }
    socket.close();  // a parked connection was moved out already
    backend = nullptr;
  }

  Backend* backend = nullptr;  ///< null when no slot is held
  Socket socket;
  bool pooled = false;  ///< parked before this lease: it may have rotted
};

struct Router::Flight {
  /// Ends the exchange with what its owner is observed as: a data-plane ok
  /// when it answered, else a timeout (the HUNG-engine signal, also when
  /// its hedge answered first) or a transport error (the dead-engine one).
  /// The connection is dropped unless a whole reply parked it already.
  void finish(Observation how, bool instrument) {
    seen = how;
    lease.release(false);
    if (instrument) done_ns = obs::now_ns();
  }
  void fail(const std::exception& error, bool instrument) {
    const bool timeout = dynamic_cast<const WireTimeout*>(&error) != nullptr;
    finish(timeout || hedge_answered ? Observation::kTimeout
                                     : Observation::kTransportError,
           instrument);
  }

  const RoundGroup* group = nullptr;
  std::shared_ptr<Backend> backend;  ///< the owner
  bool struck = false;  ///< it has strikes for a data-plane ok to clear
  Lease lease;
  std::vector<std::uint8_t> frame;
  Clock::time_point deadline = Clock::time_point::max();
  Clock::time_point hedge_at = Clock::time_point::max();  ///< max once fired
  std::uint64_t encode_ns = 0, sent_ns = 0, hedge_ns = 0, done_ns = 0;
  std::shared_ptr<Backend> hedged_to;  ///< the hedge's target once it fired
  bool hedge_answered = false;
  std::optional<Observation> seen;  ///< unset while the exchange is open
};

std::vector<std::uint8_t> Router::exchange(Backend& backend,
                                           std::span<const std::uint8_t> frame,
                                           double timeout_ms) {
  Lease lease;
  lease.acquire(backend, config_.pool_connections);
  for (;;) {
    try {
      lease.socket.set_io_timeout(timeout_ms);
      lease.socket.send_frame(frame);
      std::vector<std::uint8_t> reply = lease.socket.recv_frame();
      lease.socket.set_io_timeout(0);  // pooled connections block at rest
      lease.release(true);
      return reply;
    } catch (const WireError& error) {
      if (!reconnect(lease, error)) throw;
    }
  }
}

bool Router::reconnect(Lease& lease, const WireError& error) {
  // A deadline is never retried here: the caller owns the hung-engine
  // handling. A pooled connection, though, can rot while parked (the
  // engine restarted: first reuse sees EPIPE/ECONNRESET). That says
  // nothing about the backend NOW, so it is retried once on a fresh
  // connection before the backend is declared dead. Every wire verb is
  // idempotent (reads trivially; deploy/publish re-install the same
  // version; drain re-requests a drain), and the failed send/recv never
  // delivered a reply, so re-issuing the frame is safe.
  if (!lease.pooled || dynamic_cast<const WireTimeout*>(&error) != nullptr) {
    return false;
  }
  reconnects_counter_->add();
  lease.pooled = false;
  lease.socket = Socket::connect_to(lease.backend->parsed);
  return true;
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
  return decode_predict_replies(recv_reply(socket, &primary, timeout_ms));
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

std::shared_ptr<Router::Backend> Router::hedge_target(
    const std::string& owner) const {
  const MutexLock lock(mutex_);
  auto it = members_.upper_bound(owner);
  for (std::size_t seen = 0; seen < members_.size(); ++seen, ++it) {
    if (it == members_.end()) it = members_.begin();  // wrap around
    if (it->first == owner) break;
    if (it->second.state.phase == Phase::kLive) return it->second.backend;
  }
  return nullptr;
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
  const std::uint64_t trace = trace_ids.empty() ? 0 : trace_ids.front();
  // Router-side spans, each observed by its stage histogram as it ends and
  // committed to the trace journal at the end.
  std::vector<obs::Span> spans;
  const auto record = [&](obs::Histogram* histogram, obs::Stage stage,
                          std::uint64_t start_ns, std::uint64_t end_ns) {
    spans.push_back({stage, start_ns, end_ns - start_ns});
    histogram->observe(spans.back().duration_ms());
  };

  std::vector<serve::PredictResponse> responses(reqs.size());
  const auto reject = [&](std::size_t i) {
    responses[i].user_id = reqs[i].user_id;
    responses[i].rejected = true;
  };
  std::vector<Outstanding> outstanding(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) outstanding[i].index = i;
  const RoundPolicy policy{config_.request_timeout_ms, resolve_hedge_delay()};

  // One failover retry per backend the fleet had when the call began.
  std::size_t attempts = 1;
  for (std::size_t round = 0; !outstanding.empty() && round < attempts;
       ++round) {
    const std::uint64_t round_start_ns = instrument ? obs::now_ns() : 0;
    RoundPlan plan;
    std::vector<Flight> flights;
    {
      MutexLock lock(mutex_);
      if (round == 0) attempts = partitioner_.backend_count() + 1;
      // A read whose owner is leaving waits until its users are deployed
      // on their new owners and the partitions have moved. (Loops, not
      // lambdas: the thread-safety analysis sees no lock inside a lambda.)
      while (!leaving_.empty()) {
        bool waits = false;
        for (const Outstanding& out : outstanding) {
          const std::uint32_t user = reqs[out.index].user_id;
          waits = waits || partitioner_.owner_of(user) == leaving_;
        }
        if (!waits) break;
        lock.wait(moved_cv_);
      }
      if (partitioner_.backend_count() == 0) break;
      // Every owner is live now (a leaving one was waited out), and the
      // plan names each by its pool's own address, which the flights keep
      // alive past the lock.
      for (Outstanding& out : outstanding) {
        const std::uint32_t user = reqs[out.index].user_id;
        out.owner = members_.at(partitioner_.owner_of(user)).backend->address;
      }
      plan = plan_round(reqs, outstanding, watch.milliseconds(), policy);
      flights = std::vector<Flight>(plan.groups.size());
      for (std::size_t g = 0; g < flights.size(); ++g) {
        const Member& member = members_.find(plan.groups[g].owner)->second;
        flights[g].backend = member.backend;
        flights[g].struck = member.state.strikes > 0;
      }
    }

    for (const std::size_t i : plan.shed) reject(i);
    if (!plan.shed.empty()) {
      deadline_shed_counter_->add(plan.shed.size());
      // One journal entry per BURST, not per request — sheds cluster (a
      // stall expires a whole round at once) and the counter above already
      // carries the exact total.
      if (instrument) {
        events_.emit(obs::EventType::kDeadlineShed, "router",
                     std::to_string(plan.shed.size()) + " of " +
                         std::to_string(outstanding.size()) +
                         " requests past deadline in round " +
                         std::to_string(round),
                     trace);
      }
    }
    forward(plan, policy, instrument, responses, flights);

    // Post-mortem, as membership observations, once every group has ended
    // and no pool slot is held. Only a struck backend has anything for a
    // data-plane ok to clear, so the common read skips it. A group neither
    // it nor its hedge answered is retried next round.
    outstanding.clear();
    for (const Flight& flight : flights) {
      const std::string& owner = flight.backend->address;
      if (instrument) {
        record(wire_serialize_hist_, obs::Stage::kWireSerialize,
               flight.encode_ns, flight.sent_ns);
        record(fanout_hist_, obs::Stage::kRouterFanout, flight.sent_ns,
               flight.done_ns);
        if (flight.hedged_to) {
          record(hedge_hist_, obs::Stage::kHedge, flight.hedge_ns,
                 flight.done_ns);
        }
      }
      if (flight.hedge_answered) {
        (void)observe(flight.hedged_to->address, Observation::kDataOk);
      }
      if (flight.seen == Observation::kDataOk) {
        if (flight.struck) (void)observe(owner, Observation::kDataOk);
        continue;
      }
      if (flight.hedge_answered) {
        hedge_wins_counter_->add();
        if (instrument) {
          events_.emit(obs::EventType::kHedgeWin, flight.hedged_to->address,
                       "duplicate read beat " + owner, trace);
        }
      }
      (void)observe(owner, *flight.seen, trace);
      if (flight.hedge_answered) continue;
      for (const std::size_t i : plan.order_of(*flight.group)) {
        outstanding.push_back({i, {}});
      }
    }
    if (instrument && round > 0) {
      // Rounds past the first exist only because a backend failed: the
      // whole round is failover work, visible as its own span.
      record(failover_hist_, obs::Stage::kFailoverRetry, round_start_ns,
             obs::now_ns());
    }
    if (!outstanding.empty() && round + 1 < attempts) {
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
  }

  // Requests that survived every retry round with no live owner.
  for (const Outstanding& out : outstanding) reject(out.index);

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
    for (const std::uint64_t id : trace_ids) {
      traces_.record(id, spans);
      traces_.finish(id, latency_ms);
    }
  }
  return responses;
}

void Router::forward(const RoundPlan& plan, const RoundPolicy& policy,
                     bool instrument,
                     std::span<serve::PredictResponse> responses,
                     std::span<Flight> flights) {
  const auto stamp = [instrument] { return instrument ? obs::now_ns() : 0; };
  // Sends a flight's frame, again on a fresh connection when a pooled one
  // has rotted, and starts its deadline.
  const auto send = [this](Flight& flight) {
    const double timeout_ms = flight.group->timeout_ms;
    for (;;) {
      try {
        flight.lease.socket.set_io_timeout(timeout_ms);
        flight.lease.socket.send_frame(flight.frame);
        break;
      } catch (const WireError& error) {
        if (!reconnect(flight.lease, error)) throw;
      }
    }
    if (timeout_ms > 0.0) flight.deadline = Clock::now() + millis(timeout_ms);
  };
  // Lease and send group by group, in owner-address order: a caller waits
  // for a pool slot only of a backend that sorts after every one it holds,
  // so two callers never wait on each other.
  for (std::size_t g = 0; g < flights.size(); ++g) {
    Flight& flight = flights[g];
    const RoundGroup& group = plan.groups[g];
    flight.group = &group;
    auto& injector = fault::Injector::global();
    if (injector.active()) {
      injector.sleep_for(injector.decide("router.exchange", group.owner));
    }
    flight.encode_ns = stamp();
    flight.frame = encode_predict_batch(plan.batch_of(group));
    flight.sent_ns = stamp();
    forwards_.fetch_add(1, std::memory_order_relaxed);
    if (group.hedges) {
      flight.hedge_at = Clock::now() + millis(policy.hedge_delay_ms);
    }
    try {
      flight.lease.acquire(*flight.backend, config_.pool_connections);
      send(flight);
    } catch (const std::exception& error) {
      flight.fail(error, instrument);
    }
  }
  // Then one poll over every open group's connection (an ended group's is
  // closed or parked, and the poll skips it), each reply decoded into
  // `responses` as it arrives.
  std::vector<const Socket*> sockets(flights.size());
  for (std::size_t g = 0; g < flights.size(); ++g) {
    sockets[g] = &flights[g].lease.socket;
  }
  for (;;) {
    bool open = false;
    Clock::time_point wake = Clock::time_point::max();
    for (const Flight& flight : flights) {
      if (flight.seen) continue;
      open = true;
      wake = std::min({wake, flight.deadline, flight.hedge_at});
    }
    if (!open) return;
    const std::size_t ready = first_readable(sockets, millis_until(wake));
    if (ready < flights.size()) {
      Flight& flight = flights[ready];
      try {
        std::vector<std::uint8_t> reply;
        try {
          reply = flight.lease.socket.recv_frame();
        } catch (const WireError& error) {
          if (flight.hedge_answered || !reconnect(flight.lease, error)) throw;
          send(flight);
          continue;
        }
        flight.lease.socket.set_io_timeout(0);  // pooled ones block at rest
        flight.lease.release(true);
        scatter(decode_predict_replies(reply), plan.order_of(*flight.group),
                responses, flight.backend->address);
        flight.finish(Observation::kDataOk, instrument);
      } catch (const std::exception& error) {
        flight.fail(error, instrument);
      }
      continue;
    }
    // A passed deadline ends its group. A due hedge fires, one per poll: it
    // runs to its end, and replies that arrived meanwhile are read before
    // the next one fires.
    const Clock::time_point now = Clock::now();
    Flight* due = nullptr;
    for (Flight& flight : flights) {
      if (flight.seen) continue;
      if (now >= flight.deadline) {
        flight.finish(Observation::kTimeout, instrument);
      } else if (due == nullptr && now >= flight.hedge_at) {
        due = &flight;
      }
    }
    if (due != nullptr) hedge(*due, plan, responses, instrument);
  }
}

void Router::hedge(Flight& flight, const RoundPlan& plan,
                   std::span<serve::PredictResponse> responses,
                   bool instrument) {
  flight.hedge_at = Clock::time_point::max();  // at most once per group
  const std::uint64_t fired = hedges_fired_.load(std::memory_order_relaxed);
  const std::uint64_t total = forwards_.load(std::memory_order_relaxed);
  if (static_cast<double>(fired + 1) >
      config_.hedge_budget_fraction * static_cast<double>(total)) {
    return;
  }
  flight.hedged_to = hedge_target(flight.backend->address);
  if (flight.hedged_to == nullptr) return;
  flight.hedge_ns = obs::now_ns();
  hedges_fired_.fetch_add(1, std::memory_order_relaxed);
  hedges_counter_->add();
  const RoundGroup& group = *flight.group;
  try {
    scatter(hedge_read(*flight.hedged_to, plan.batch_of(group), flight.frame,
                       group.timeout_ms, flight.lease.socket),
            plan.order_of(group), responses, flight.hedged_to->address);
  } catch (const std::exception&) {
    // Hedge failures never fail the TARGET over — it was drafted in, not
    // proven guilty. The primary's read goes on.
    return;
  }
  flight.hedge_answered = true;
  // The primary's reply is read only if it is there already. Otherwise it
  // is still owed on this connection, which never goes back to the pool.
  const Socket* primary = &flight.lease.socket;
  if (first_readable({&primary, 1}, 0) != 0) {
    flight.finish(Observation::kTimeout, instrument);
  }
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
