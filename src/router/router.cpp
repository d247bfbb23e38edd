#include "router/router.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/fault.hpp"
#include "common/timer.hpp"

namespace pelican::router {

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

}  // namespace

Router::Router(RouterConfig config)
    : config_(config),
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
  auto backend = std::make_shared<Backend>(address);
  // Health-check before admitting: a typo'd address must fail the add, not
  // the first serve. Throws WireError when unreachable.
  {
    const auto reply =
        exchange(*backend, encode_health(), config_.request_timeout_ms);
    (void)decode_health_reply(reply);
  }
  std::size_t moved = 0;
  LedgerSlice joined;
  {
    const MutexLock lock(mutex_);
    // A quarantined address is NOT re-added here: the recovery prober owns
    // its way back (double membership would split its partitions).
    if (backends_.contains(address) || quarantined_.contains(address)) {
      return 0;
    }
    backends_.emplace(address, std::move(backend));
    moved = partitioner_.add_backend(address);
    joined = ledger_owned_by(address);
  }
  // The partitions it took carry users deployed before it joined.
  redeploy(joined);
  return moved;
}

std::shared_ptr<Router::Backend> Router::find_backend(
    const std::string& address) const {
  const MutexLock lock(mutex_);
  const auto it = backends_.find(address);
  if (it == backends_.end() || !it->second->alive.load()) return nullptr;
  return it->second;
}

std::vector<std::uint8_t> Router::exchange(Backend& backend,
                                           std::span<const std::uint8_t> frame,
                                           double timeout_ms,
                                           bool clears_strikes, Hedge* hedge) {
  bool hedged = false;    // the hedge runs at most once per exchange
  bool answered = false;  // whether it answered
  for (int attempt = 0;; ++attempt) {
    Socket socket;
    bool from_pool = false;
    {
      MutexLock lock(backend.pool_mutex);
      while (backend.alive.load() && backend.idle.empty() &&
             backend.open_connections >= config_.pool_connections) {
        lock.wait(backend.pool_cv);
      }
      if (!backend.alive.load()) {
        throw WireError("backend dead: " + backend.address);
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
      if (reuse && backend.alive.load()) {
        backend.idle.push_back(std::move(socket));
      } else {
        --backend.open_connections;  // discarded, or the pool is torn down
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
        answered = hedge->fire();
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
      if (clears_strikes) {
        backend.timeout_strikes.store(0, std::memory_order_relaxed);
      }
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
    std::span<const std::uint8_t> frame, double timeout_ms) {
  // The target may not hold these users yet: re-deploy them from the
  // ledger first. Deploys are idempotent, and the target pulls the SAME
  // (user, version) artifacts from the shared store — which is why the
  // hedged answer is bit-identical to the primary's and taking whichever
  // comes first is sound.
  std::vector<DeployCommand> deploys;
  {
    const MutexLock lock(mutex_);
    for (const serve::PredictRequest& request : batch) {
      const std::uint32_t user = request.user_id;
      if (std::ranges::find(deploys, user, &DeployCommand::user_id) !=
          deploys.end()) {
        continue;
      }
      const auto it = ledger_.find(user);
      if (it == ledger_.end()) {
        throw WireError("hedge: user " + std::to_string(user) +
                        " not in ledger");
      }
      deploys.push_back(
          {user, it->second.version, it->second.temperature, it->second.spec});
    }
  }
  Socket socket = Socket::connect_to(target.parsed);
  socket.set_io_timeout(timeout_ms);
  for (const DeployCommand& deploy : deploys) {
    socket.send_frame(encode_deploy(deploy));
    const Ack ack = decode_ack(socket.recv_frame());
    if (!ack.ok) throw WireError("hedge deploy refused: " + ack.message);
  }
  socket.send_frame(frame);
  auto answers = decode_predict_replies(socket.recv_frame());
  if (answers.size() != batch.size()) {
    throw WireError("predict reply count mismatch from " + target.address);
  }
  target.timeout_strikes.store(0, std::memory_order_relaxed);
  return answers;
}

void Router::handle_backend_failure(const std::string& address,
                                    std::uint64_t trace_id) {
  remove_backend(address, /*stash_quarantined=*/false, trace_id);
}

void Router::quarantine_backend(const std::string& address,
                                std::uint64_t trace_id) {
  remove_backend(address, /*stash_quarantined=*/true, trace_id);
}

void Router::remove_backend(const std::string& address,
                            bool stash_quarantined, std::uint64_t trace_id) {
  std::shared_ptr<Backend> backend;
  LedgerSlice to_redeploy;
  {
    const MutexLock lock(mutex_);
    const auto it = backends_.find(address);
    if (it == backends_.end() || !it->second->alive.load()) {
      return;  // another thread already removed this backend
    }
    backend = it->second;
    backend->alive.store(false);
    // The users about to move are exactly those the removed backend owned —
    // collect them BEFORE the repartition so the ledger walk and the
    // ownership table agree.
    to_redeploy = ledger_owned_by(address);
    partitioner_.remove_backend(address);
    backends_.erase(it);
    if (stash_quarantined) {
      backend->quarantined_at_ns.store(obs::now_ns(),
                                       std::memory_order_relaxed);
      backend->quarantine_count.fetch_add(1, std::memory_order_relaxed);
      quarantined_.emplace(address, backend);
      quarantines_counter_->add();
    }
  }
  // Membership transitions always journal (they are rare and are the
  // events an operator greps for first); trace_id ties the quarantine to
  // the request whose timeout tripped it.
  events_.emit(stash_quarantined ? obs::EventType::kQuarantine
                                 : obs::EventType::kFailover,
               address,
               stash_quarantined
                   ? "suspected hung; partitions moved, watching for recovery"
                   : "transport failure; partitions moved",
               trace_id);
  {
    // Tear down the pool and wake any thread parked waiting for a
    // connection slot — they observe !alive and fail over themselves.
    const MutexLock lock(backend->pool_mutex);
    backend->open_connections -= backend->idle.size();
    backend->idle.clear();
    backend->pool_cv.notify_all();
  }
  // Failover re-deploy: the fleet-shared store still holds every model, so
  // surviving owners just pull the same (user, version) keys.
  redeploy(to_redeploy);
}

Router::LedgerSlice Router::ledger_owned_by(const std::string& address) const {
  LedgerSlice owned;
  for (const auto& [user, record] : ledger_) {
    if (partitioner_.owner_of(user) == address) owned.emplace_back(user, record);
  }
  return owned;
}

void Router::redeploy(const LedgerSlice& users) {
  for (const auto& [user, record] : users) {
    try {
      (void)admin_to_owner(
          user, encode_deploy(
                    {user, record.version, record.temperature, record.spec}));
    } catch (const std::exception&) {
    }
  }
}

bool Router::probe_backend(Backend& backend) {
  // Always a fresh connection: the pool (and everything parked in it) may
  // be exactly what is wedged.
  try {
    Socket socket = Socket::connect_to(backend.parsed);
    socket.set_io_timeout(config_.probe_timeout_ms);
    socket.send_frame(encode_health());
    (void)decode_health_reply(socket.recv_frame());
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void Router::handle_backend_timeout(const std::string& address,
                                    std::uint64_t trace_id) {
  timeouts_counter_->add();
  const auto backend = find_backend(address);
  if (backend == nullptr) return;  // already removed or quarantined
  const std::uint64_t strikes =
      backend->timeout_strikes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (strikes >= config_.quarantine_after_timeouts) {
    // Persistently slow is hung for the caller's purposes, whatever the
    // health verb says (its handler thread may be fine while predict
    // handlers are livelocked).
    quarantine_backend(address, trace_id);
    return;
  }
  // Rate-limit the suspicion probe: a timeout storm across serve threads
  // should probe once per interval, not once per thread.
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = backend->last_probe_ns.load(std::memory_order_relaxed);
  const auto interval_ns =
      static_cast<std::uint64_t>(config_.probe_interval_ms * 1e6);
  if (last != 0 && now - last < interval_ns) return;
  if (!backend->last_probe_ns.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;  // a concurrent caller owns this probe
  }
  if (!probe_backend(*backend)) quarantine_backend(address, trace_id);
}

void Router::unquarantine_backend(const std::string& address) {
  LedgerSlice to_redeploy;
  {
    const MutexLock lock(mutex_);
    const auto it = quarantined_.find(address);
    if (it == quarantined_.end()) return;
    const std::shared_ptr<Backend> backend = it->second;
    quarantined_.erase(it);
    backend->alive.store(true);
    backend->timeout_strikes.store(0, std::memory_order_relaxed);
    backends_.emplace(address, backend);
    (void)partitioner_.add_backend(address);
    // The partitions just moved back; re-deploy the users this backend now
    // owns. It likely still holds their models, but it may have missed
    // deploys/publishes while quarantined — deploys are idempotent, so
    // re-issuing from the ledger reconciles it with the fleet's truth.
    to_redeploy = ledger_owned_by(address);
    unquarantines_counter_->add();
  }
  events_.emit(obs::EventType::kUnquarantine, address,
               "probe answered past hold-down; partitions restored");
  redeploy(to_redeploy);
}

bool Router::in_quarantine_holddown(const Backend& backend) const {
  if (config_.quarantine_holddown_ms <= 0.0) return false;
  // A strike-quarantined backend's health verb may have answered all
  // along — the hold-down (doubling per repeated quarantine, capped at
  // 64x) is what keeps a hung-but-healthy engine from flapping back in.
  const std::uint64_t count =
      backend.quarantine_count.load(std::memory_order_relaxed);
  const std::uint64_t exponent = std::min<std::uint64_t>(count - 1, 6);
  const double holddown_ns = config_.quarantine_holddown_ms * 1e6 *
                             static_cast<double>(std::uint64_t{1} << exponent);
  const std::uint64_t since =
      obs::now_ns() - backend.quarantined_at_ns.load(std::memory_order_relaxed);
  return static_cast<double>(since) < holddown_ns;
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
    std::vector<std::shared_ptr<Backend>> suspects;
    {
      const MutexLock lock(mutex_);
      suspects.reserve(quarantined_.size());
      for (const auto& [address, backend] : quarantined_) {
        suspects.push_back(backend);
      }
    }
    for (const auto& backend : suspects) {
      if (in_quarantine_holddown(*backend)) continue;
      if (probe_backend(*backend)) unquarantine_backend(backend->address);
    }
  }
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
  // One failover retry: the first attempt discovers a dead owner at most
  // once, the second runs against the repartitioned fleet.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string owner;
    {
      const MutexLock lock(mutex_);
      if (partitioner_.backend_count() == 0) {
        throw WireError("no live backends");
      }
      owner = partitioner_.owner_of(user);
    }
    const auto backend = find_backend(owner);
    if (backend == nullptr) {
      handle_backend_failure(owner);
      continue;
    }
    try {
      return decode_ack(
          exchange(*backend, frame, config_.request_timeout_ms));
    } catch (const WireTimeout&) {
      handle_backend_timeout(owner);
    } catch (const WireError&) {
      handle_backend_failure(owner);
    }
  }
  throw WireError("no live backend for user " + std::to_string(user));
}

void Router::deploy(std::uint32_t user, std::uint32_t version,
                    const mobility::EncodingSpec& spec, double temperature) {
  // Ledger first: if the owner dies between the ack and our bookkeeping,
  // failover must already know how to re-deploy this user. Every failure
  // path must undo the write — back to the PREVIOUS record when this was a
  // re-deploy (the engine still serves the old version, and failover must
  // keep restoring it), gone entirely when the user was never deployed
  // (or a failed deploy would materialize later as a ghost deployment).
  std::optional<Deployment> previous;
  {
    const MutexLock lock(mutex_);
    const auto it = ledger_.find(user);
    if (it != ledger_.end()) previous = it->second;
    ledger_[user] = Deployment{version, temperature, spec};
  }
  const auto roll_back = [&] {
    const MutexLock lock(mutex_);
    if (previous.has_value()) {
      ledger_[user] = *previous;
    } else {
      ledger_.erase(user);
    }
  };
  Ack ack;
  try {
    ack =
        admin_to_owner(user, encode_deploy({user, version, temperature, spec}));
  } catch (...) {
    roll_back();
    throw;
  }
  if (!ack.ok) {
    roll_back();
    throw std::runtime_error("Router: deploy of user " + std::to_string(user) +
                             " refused: " + ack.message);
  }
}

void Router::publish(std::uint32_t user, std::uint32_t version) {
  const Ack ack = admin_to_owner(user, encode_publish({user, version}));
  if (!ack.ok) {
    throw std::runtime_error("Router: publish of user " +
                             std::to_string(user) + " v" +
                             std::to_string(version) +
                             " refused: " + ack.message);
  }
  events_.emit(obs::EventType::kPublish, "user " + std::to_string(user),
               "v" + std::to_string(version) + " live (stall-free swap)");
  const MutexLock lock(mutex_);
  const auto it = ledger_.find(user);
  if (it != ledger_.end()) it->second.version = version;
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
      std::vector<std::size_t> alive_requests;
      alive_requests.reserve(remaining.size());
      std::uint64_t shed = 0;
      for (const std::size_t i : remaining) {
        if (reqs[i].deadline_ms > 0.0 && elapsed_ms >= reqs[i].deadline_ms) {
          deadline_shed_counter_->add();
          ++shed;
          responses[i].user_id = reqs[i].user_id;
          responses[i].ok = false;
          responses[i].rejected = true;
        } else {
          alive_requests.push_back(i);
        }
      }
      if (shed > 0 && instrument) {
        // One journal entry per BURST, not per request — sheds cluster
        // (a stall expires a whole round at once) and the counter above
        // already carries the exact total.
        events_.emit(obs::EventType::kDeadlineShed, "router",
                     std::to_string(shed) + " of " +
                         std::to_string(shed + alive_requests.size()) +
                         " requests past deadline in round " +
                         std::to_string(round),
                     trace_ids.empty() ? 0 : trace_ids.front());
      }
      remaining.swap(alive_requests);
      if (remaining.empty()) break;
    }

    // Group the outstanding requests by owning backend. std::map keys the
    // groups by address, so the fan-out order is deterministic.
    std::map<std::string, std::vector<std::size_t>> groups;
    {
      const MutexLock lock(mutex_);
      if (partitioner_.backend_count() == 0) break;
      for (const std::size_t i : remaining) {
        groups[partitioner_.owner_of(reqs[i].user_id)].push_back(i);
      }
    }

    std::vector<std::pair<std::string, std::vector<std::size_t>>> fan_out(
        groups.begin(), groups.end());
    std::vector<std::vector<std::size_t>> failed(fan_out.size());

    // A fan-out over more than one backend forwards each group from a
    // short-lived thread of its own; a single group (every batch-1 read)
    // runs in the caller's thread. Deliberately NOT ThreadPool::global():
    // these bodies BLOCK on socket I/O, which would park compute workers
    // the in-process engine path and attack scoring share, and
    // parallel_for serializes concurrent submissions — two client threads
    // in serve() would serialize their network waits.
    auto forward = [&](std::size_t g) {
      const auto& [address, indices] = fan_out[g];
      const auto backend = find_backend(address);
      if (backend == nullptr) {
        failed[g] = indices;
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
      hedge.fire = [&] {
        const std::uint64_t fired =
            hedges_fired_.load(std::memory_order_relaxed);
        const std::uint64_t total = forwards_.load(std::memory_order_relaxed);
        if (static_cast<double>(fired + 1) >
            config_.hedge_budget_fraction * static_cast<double>(total)) {
          return false;
        }
        const std::string target = hedge_candidate(address);
        const auto target_backend =
            target.empty() ? nullptr : find_backend(target);
        if (target_backend == nullptr) return false;
        hedge_target = target;
        hedge_start_ns = obs::now_ns();
        hedges_fired_.fetch_add(1, std::memory_order_relaxed);
        hedges_counter_->add();
        try {
          answers = hedge_read(*target_backend, batch, frame, timeout_ms);
          return true;
        } catch (const std::exception&) {
          // Hedge failures never fail the TARGET over — it was drafted in,
          // not proven guilty. The primary's read goes on.
          return false;
        }
      };

      bool primary_timeout = false;
      bool primary_failed = false;
      try {
        const auto reply =
            exchange(*backend, frame, timeout_ms, /*clears_strikes=*/true,
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
        failed[g] = indices;
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

      // Post-mortem on the primary path. A timeout (or losing the hedge
      // race) is the HUNG-engine signal: probe and maybe quarantine. A
      // transport error is the dead-engine signal.
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
        handle_backend_timeout(address, group_trace);
      } else if (primary_failed) {
        handle_backend_failure(address, group_trace);
      }
    };
    if (fan_out.size() == 1) {
      forward(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(fan_out.size());
      for (std::size_t g = 0; g < fan_out.size(); ++g) {
        threads.emplace_back(forward, g);
      }
      for (auto& thread : threads) thread.join();
    }

    remaining.clear();
    for (const auto& slice : failed) {
      remaining.insert(remaining.end(), slice.begin(), slice.end());
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
    serve::PredictResponse response;
    response.user_id = reqs[i].user_id;
    response.ok = false;
    response.rejected = true;
    responses[i] = response;
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

Router::FleetMetrics Router::fleet_metrics() {
  FleetMetrics out;
  for (const auto& address : live_backends()) {
    const auto backend = find_backend(address);
    if (backend == nullptr) continue;
    try {
      EngineMetricsReport report = decode_metrics_reply(
          exchange(*backend, encode_metrics(), config_.request_timeout_ms));
      for (obs::TraceRecord& rec : report.traces) rec.source = address;
      obs::merge_state(out.registry, report.registry);
      out.traces.insert(out.traces.end(), report.traces.begin(),
                        report.traces.end());
      obs::merge_events(out.events, report.events, address);
      out.engines.emplace_back(address, std::move(report));
    } catch (const WireTimeout&) {
      handle_backend_timeout(address);
    } catch (const std::exception&) {
      handle_backend_failure(address);
    }
  }
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
  for (const auto& address : live_backends()) {
    const auto backend = find_backend(address);
    if (backend == nullptr) continue;
    try {
      out.emplace_back(address,
                       decode_health_reply(exchange(
                           *backend, encode_health(),
                           config_.request_timeout_ms)));
    } catch (const WireTimeout&) {
      handle_backend_timeout(address);
    } catch (const std::exception&) {
      handle_backend_failure(address);
    }
  }
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
  for (const auto& address : live_backends()) {
    const auto backend = find_backend(address);
    if (backend == nullptr) continue;
    try {
      (void)decode_ack(
          exchange(*backend, encode_drain(), config_.drain_timeout_ms));
    } catch (const std::exception&) {
      // Bounded by drain_timeout_ms: a wedged engine is abandoned, not
      // waited on (the drain contract in wire.hpp).
    }
  }
  // Quarantined engines are processes too: offer them the same graceful
  // exit on a fresh connection (their pools are already torn down), still
  // bounded by the drain deadline.
  std::vector<std::shared_ptr<Backend>> quarantined;
  {
    const MutexLock lock(mutex_);
    for (const auto& [address, backend] : quarantined_) {
      quarantined.push_back(backend);
    }
  }
  for (const auto& backend : quarantined) {
    try {
      Socket socket = Socket::connect_to(backend->parsed);
      socket.set_io_timeout(config_.drain_timeout_ms);
      socket.send_frame(encode_drain());
      (void)decode_ack(socket.recv_frame());
    } catch (const std::exception&) {
    }
  }
  // The fleet is gone by contract; leave the router in a defined state.
  const MutexLock lock(mutex_);
  for (auto& [address, backend] : backends_) {
    backend->alive.store(false);
    (void)partitioner_.remove_backend(address);
    const MutexLock pool_lock(backend->pool_mutex);
    backend->open_connections -= backend->idle.size();
    backend->idle.clear();
    backend->pool_cv.notify_all();
  }
  backends_.clear();
  quarantined_.clear();
}

std::vector<std::string> Router::live_backends() const {
  std::vector<std::string> out;
  {
    const MutexLock lock(mutex_);
    out.reserve(backends_.size());
    for (const auto& [address, backend] : backends_) {
      if (backend->alive.load()) out.push_back(address);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Router::quarantined_backends() const {
  std::vector<std::string> out;
  {
    const MutexLock lock(mutex_);
    out.reserve(quarantined_.size());
    for (const auto& [address, backend] : quarantined_) {
      out.push_back(address);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
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
