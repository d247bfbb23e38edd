// Router: the front door of a multi-process serving fleet.
//
// Owns the user→process map (Partitioner over explicit ownership tables)
// and a pool of wire-protocol connections per engine backend. Callers see
// the single-process engine's API shape — deploy / publish / serve /
// metrics — and the router turns each call into frames for the owning
// process:
//
//   serve(requests)    runs on the calling thread, one planned round per
//                      failover attempt: plan_round (round_plan.hpp) sheds
//                      expired requests and groups the rest by owning
//                      backend, one kPredictBatch each is sent, and one
//                      poll over all their connections reads each reply as
//                      it arrives. Responses come back in request order,
//                      bit-identical to direct ServingEngine calls: the
//                      wire carries discretized features and location ids
//                      only, and the engine runs the same
//                      predict_top_k_batch.
//   deploy/publish     routed to the owning process only (never broadcast);
//                      models flow through the fleet-shared
//                      store::FilesystemBackend, so the wire carries keys,
//                      and PR 3's stall-free publish contract holds
//                      end-to-end.
//   fleet_metrics()    the full observability pull: every engine's
//                      registry (serving counters + stage histograms) and
//                      journals, exactly merged, with every trace record
//                      tagged by the process it came from.
//
// The router records the serving counters of serve/stats.hpp for its own
// end-to-end view of each request (wire and failover time included) under
// kRouterMetricPrefix in metrics(): router_request_latency_ms,
// router_requests_rejected_total, router_requests_shed_total.
//
// TRACING. serve() runs under one obs trace per call: requests that arrive
// untraced are stamped with a fresh 64-bit id (requests already carrying an
// id — e.g. from an upstream tier — keep it), and the id rides the predict
// frame to the engines, whose schedulers record their stage spans under the
// SAME id. The router records its own spans (wire serialize, per-backend
// fan-out, failover retry rounds), so a slow routed request decomposes
// end-to-end across both processes when pelican_statsz groups journal
// records by trace id.
//
// FAILOVER. A backend's membership (absent, live, quarantined) is one pure
// state machine, router/membership.hpp, which holds the full table: every
// exchange outcome is an observation fed through it, and the Router
// carries out the actions it returns. Any transport error on a live
// backend is the dead-engine signal: the Partitioner drops the backend
// (moving only its partitions). Every membership change deploys first and
// moves partitions after: the next owners are computed on a copy of the
// Partitioner, the ledger users that move are deployed there (the store
// still holds every model), and only then does the new partitioning
// commit. Reads whose owner is leaving wait for the commit and are retried
// against the new owner; during a join, reads keep going to the old
// owners, which still hold the models. Predictions are idempotent reads,
// so the retry is safe; publishes are also retried once (installing the
// same version twice is a no-op by construction). In-flight state lost
// with the dead process is its metrics and queue — never a model, never
// the ownership map. Retry rounds back off exponentially
// (retry_backoff_*) so a flapping fleet is not hammered.
//
// TAIL TOLERANCE. Beyond dead backends, the router handles SLOW ones:
//
//   deadlines    serve() honors PredictRequest::deadline_ms — expired
//                requests are shed without a forward, and the remaining
//                budget (minus router time already spent) rides the wire so
//                engines shed at their admission too. Every exchange is
//                bounded by request_timeout_ms (clamped to the batch's
//                remaining budget).
//   hedging      when a backend's reply is not readable within the hedge
//                delay (auto-derived from the observed p99 of the
//                router_fanout stage histogram, or pinned via
//                hedge_delay_ms), the caller's own thread fires the SAME
//                predict batch at a second live backend, on one fresh
//                connection that first re-deploys the users there from the
//                ledger (deploys are idempotent). A hedge runs to its end
//                while the round's other replies wait in their sockets, so
//                a round hedges one group at a time. The first readable
//                answer wins: the hedge watches the primary's connection
//                while it waits for each of its replies and is abandoned as
//                soon as the primary's reply is readable; once the hedge
//                answers, the primary's reply is read only if it is already
//                there, and otherwise its connection is dropped. A hedge
//                that fails leaves the primary's read to finish. Answers are
//                bit-identical by construction (same store artifact, same
//                kernels), so which copy wins is unobservable in the
//                response. A hedge budget (hedge_budget_fraction) caps
//                hedges to a fraction of forwards so hedging cannot double
//                fleet load.
//   quarantine   a timeout or a lost hedge race earns a strike and a
//                health probe; a failed probe or quarantine_after_timeouts
//                strikes QUARANTINE the backend: its partitions move out as
//                on death, but the process stays up, and a recovery thread
//                folds it back in once it answers past its hold-down.
//
// Thread-safe: any number of threads may call serve/publish/deploy
// concurrently; membership changes, deploys and publishes serialize on an
// internal lock that reads never take, and the connection pools bound
// per-backend concurrency. A serve() round leases its pools in address
// order, so two callers never wait on each other's slots. Pooled
// connections that broke while parked (engine restart: EPIPE/ECONNRESET on
// first use) are transparently replaced with one fresh connect + retry per
// exchange.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "mobility/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "router/membership.hpp"
#include "router/partitioner.hpp"
#include "router/round_plan.hpp"
#include "router/socket.hpp"
#include "router/wire.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace pelican::router {

struct RouterConfig {
  /// Partition count of the user space (ownership-table granularity).
  std::size_t partitions = 64;
  /// Ring points per backend (evenness of the partition spread).
  std::size_t virtual_nodes = 16;
  /// Connection-pool bound per backend: at most this many in-flight
  /// request/reply exchanges per engine process.
  std::size_t pool_connections = 4;

  /// I/O deadline per request/reply exchange (predict, admin, health pulls).
  /// Expiry throws WireTimeout → the hung-engine path (probe, quarantine),
  /// not the dead-engine path. <= 0 disables (fully blocking, pre-PR 9).
  double request_timeout_ms = 2000.0;
  /// Deadline of a kDrain exchange: a wedged engine cannot hang teardown.
  double drain_timeout_ms = 2000.0;
  /// Deadline of one health probe (hung detection + recovery probing).
  double probe_timeout_ms = 250.0;
  /// Backoff between serve() retry rounds: base * 2^(round-1), capped.
  double retry_backoff_base_ms = 5.0;
  double retry_backoff_max_ms = 200.0;
  /// Hedge delay: how long a predict exchange may run before the same
  /// batch is fired at a second backend. 0 = auto: the observed p99 of the
  /// router_fanout stage histogram (floored at hedge_min_delay_ms), falling
  /// back to request_timeout_ms / 4 until enough samples exist. < 0
  /// disables hedging.
  double hedge_delay_ms = 0.0;
  double hedge_min_delay_ms = 10.0;
  /// Hedges may never exceed this fraction of predict forwards (0 also
  /// disables hedging; 1.0 = every forward may hedge).
  double hedge_budget_fraction = 0.1;
  /// Quarantine a backend after this many timeout strikes even when its
  /// health probe still answers (persistently slow ≈ hung).
  std::uint64_t quarantine_after_timeouts = 3;
  /// Recovery cadence: quarantined backends are re-probed this often, and
  /// per-backend suspicion probes are rate-limited to the same interval.
  double probe_interval_ms = 100.0;
  /// Minimum time a backend stays quarantined before the recovery prober
  /// may fold it back in, doubling per repeated quarantine (capped at
  /// 64x). A strike-quarantined backend's health verb may have answered
  /// all along — its predict path is what stalled — so a bare probe
  /// success right after quarantine proves nothing; without this
  /// hold-down a hung-but-healthy engine flaps in and out of the fleet.
  /// <= 0 disables the hold-down (probe-driven recovery only).
  double quarantine_holddown_ms = 1000.0;
};

class Router {
 public:
  explicit Router(RouterConfig config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers an engine backend by wire address and health-checks it
  /// (throws WireError when unreachable). The ledger users its partitions
  /// bring are deployed on it before the partitions move; when that fails
  /// the join does not happen and WireError is thrown. Returns the number
  /// of partitions that moved to it (0 for a backend already known).
  std::size_t add_backend(const std::string& address);

  /// Deploys `user` on its owning process: the engine reads (scope, user,
  /// version) from the fleet-shared store. The router remembers the
  /// deployment in its ledger so failover can re-deploy the user on a
  /// surviving process. Throws std::runtime_error when the engine refuses
  /// (e.g. no such store version), WireError when no backend is live.
  void deploy(std::uint32_t user, std::uint32_t version,
              const mobility::EncodingSpec& spec, double temperature = 1.0);

  /// Stall-free model update, routed to the owning process only. The
  /// ledger holds the new version before the frame is sent (and gets the
  /// old one back on failure), so a concurrent failover re-deploys it.
  void publish(std::uint32_t user, std::uint32_t version);

  /// Forwards `requests` to their owning processes (one batch per backend,
  /// all in flight at once from the calling thread) and returns responses
  /// in request order. Requests whose owner died mid-call are retried on
  /// the failover owner; requests that exhaust every backend come back
  /// ok = false / rejected = true.
  [[nodiscard]] std::vector<serve::PredictResponse> serve(
      std::span<const serve::PredictRequest> requests);

  /// The full fleet observability pull (kMetrics verb). Engines that die
  /// during collection are skipped (and failed over).
  struct FleetMetrics {
    /// The engines' serving counters, merged (exact fleet-wide
    /// percentiles). The router's own request view is not included: it is
    /// recorded under kRouterMetricPrefix.
    serve::ServerStats::Snapshot stats;
    /// Exact bucket-wise merge of every engine's registry PLUS the
    /// router's own (stage histograms share fixed boundaries, so this is
    /// identical to one process having recorded everything).
    obs::RegistryState registry;
    /// Raw per-engine reports, sorted by address — the inputs of the merge,
    /// kept so callers (statsz, tests) can audit the aggregation.
    std::vector<std::pair<std::string, EngineMetricsReport>> engines;
    /// Every journal record fleet-wide, `source` tagged with the engine
    /// address (or "router"). Records sharing a trace_id are one logical
    /// request observed from both sides of the wire.
    std::vector<obs::TraceRecord> traces;
    /// Fleet-wide structured event journal (router + engines), `source`
    /// tagged like traces and ordered by (unix_ms, seq). Events carrying a
    /// trace_id correlate with `traces` records of the same id.
    std::vector<obs::Event> events;
  };
  [[nodiscard]] FleetMetrics fleet_metrics();

  /// Per-backend health of the live fleet, sorted by address.
  [[nodiscard]] std::vector<std::pair<std::string, HealthReply>>
  fleet_health();

  /// Gracefully drains every backend, quarantined ones too (each acks,
  /// then exits its run loop). The router is unusable for serving after.
  void drain_fleet();

  /// Router-side request accounting (the serving counters under
  /// kRouterMetricPrefix), stage histograms (wire serialize / fan-out /
  /// failover / hedge), and robustness counters.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  /// Router-side span sink + slow-request journal.
  [[nodiscard]] obs::TraceCollector& traces() noexcept { return traces_; }
  /// Router-side structured event journal: quarantine/unquarantine,
  /// failover, hedge wins, publishes, deadline-shed bursts. Control-plane
  /// events (membership, publish) always record; per-request events (hedge
  /// win, shed burst) are gated by set_instrumentation like spans.
  [[nodiscard]] obs::EventJournal& events() noexcept { return events_; }
  /// Gates trace stamping and router-side span/histogram recording.
  void set_instrumentation(bool on) noexcept {
    instrument_.store(on, std::memory_order_relaxed);
    traces_.set_enabled(on);
  }
  [[nodiscard]] bool instrumentation_enabled() const noexcept {
    return instrument_.load(std::memory_order_relaxed);
  }

  /// Live backend addresses, sorted.
  [[nodiscard]] std::vector<std::string> live_backends() const;

  /// Quarantined backend addresses, sorted — suspected hung, partitions
  /// moved away, watched by the recovery prober. Disjoint from
  /// live_backends().
  [[nodiscard]] std::vector<std::string> quarantined_backends() const;

  /// The router's own observability surface in the same shape engines ship
  /// over kMetrics: registry, trace journal, event journal; `stats` is the
  /// view of its kRouterMetricPrefix counters. What pelican_statsz merges as
  /// the pseudo-engine "router".
  [[nodiscard]] EngineMetricsReport self_report();

  /// Owning backend address of a user (for tests and placement debugging).
  [[nodiscard]] std::string owner_of(std::uint32_t user) const;

  [[nodiscard]] std::size_t deployed_users() const;

 private:
  using Observation = membership::Observation;

  struct Backend {
    explicit Backend(std::string addr)
        : address(std::move(addr)), parsed(parse_address(address)) {}
    std::string address;
    Address parsed;

    Mutex pool_mutex;
    std::condition_variable pool_cv;
    /// Set once, when the backend leaves the fleet: pool waiters bail out
    /// and returned connections are dropped. A rejoin gets a new Backend.
    bool closed PELICAN_GUARDED_BY(pool_mutex) = false;
    std::vector<Socket> idle PELICAN_GUARDED_BY(pool_mutex);
    std::size_t open_connections PELICAN_GUARDED_BY(pool_mutex) =
        0;  ///< idle + leased
  };

  /// A row of the membership table.
  struct Member {
    membership::State state;
    std::shared_ptr<Backend> backend;
  };

  /// A pool slot and its connection (router.cpp).
  struct Lease;
  /// One group's exchange in a serve() round (router.cpp).
  struct Flight;

  /// Ledger records, each the deploy that re-creates its user.
  using LedgerSlice = std::vector<DeployCommand>;

  /// Failures a transition saw on other backends, observed after it.
  using Failures = std::vector<std::pair<std::string, Observation>>;

  /// One request/reply exchange over a pooled connection, bounded by
  /// `timeout_ms` (<= 0 = blocking): the admin frames' and poll_fleet's.
  /// Throws WireTimeout on deadline expiry (backend possibly hung) and
  /// WireError on transport failure (backend presumed dead), after the one
  /// reconnect().
  [[nodiscard]] std::vector<std::uint8_t> exchange(
      Backend& backend, std::span<const std::uint8_t> frame,
      double timeout_ms);

  /// After `error` on `lease`'s connection: a pooled connection that failed
  /// other than by a timeout is swapped for a fresh one in the same slot
  /// (true: send again). Throws WireError when the connect fails.
  bool reconnect(Lease& lease, const WireError& error);

  /// Carries out `plan` from the calling thread, one flight per group:
  /// leases the connections and sends every frame in plan order, then
  /// polls them all, writing each reply's answers into `responses` as it
  /// arrives, until every group has ended. A due hedge fires from here.
  void forward(const RoundPlan& plan, const RoundPolicy& policy,
               bool instrument,
               std::span<serve::PredictResponse> responses,
               std::span<Flight> flights);

  /// Fires a flight's due hedge when the budget allows and the fleet has a
  /// second choice (hedge_read). Its answers go into `responses`; the
  /// primary is then read only if its reply is already readable, and
  /// otherwise the hedge wins and the connection is dropped.
  void hedge(Flight& flight, const RoundPlan& plan,
             std::span<serve::PredictResponse> responses, bool instrument);

  /// Re-deploys `batch`'s users on `target` from the ledger, then reads the
  /// predict `frame` there: one fresh connection bounded by `timeout_ms`,
  /// as probe_backend uses. Never the target's pool — the caller holds a
  /// slot of the primary's, so waiting for one of the target's could close
  /// a cycle with a caller hedging the other way. Every reply it waits for
  /// races the `primary` connection's: once the primary's is readable, the
  /// hedge is abandoned and its connection dropped. Returns the answers;
  /// throws on any failure and on abandonment.
  [[nodiscard]] std::vector<serve::PredictResponse> hedge_read(
      Backend& target, std::span<const serve::PredictRequest> batch,
      std::span<const std::uint8_t> frame, double timeout_ms,
      const Socket& primary);

  /// Sends an admin frame to `user`'s owner; a failed owner is observed
  /// and the frame retried once. Returns the decoded ack.
  Ack admin_to_owner(std::uint32_t user,
                     const std::vector<std::uint8_t>& frame)
      PELICAN_EXCLUDES(transition_mutex_);

  /// An edit of one user's ledger record (nullopt: not deployed).
  using RecordEdit = std::function<void(std::optional<DeployCommand>&)>;

  /// Applies `edit` to `user`'s ledger record between transitions;
  /// returns the record as it was.
  std::optional<DeployCommand> edit_record(std::uint32_t user,
                                           const RecordEdit& edit)
      PELICAN_EXCLUDES(transition_mutex_);

  /// deploy() and publish(): edits the ledger, routes `frame` to the owner,
  /// and restores the record when that fails or is refused.
  Ack update_owner(std::uint32_t user, const std::vector<std::uint8_t>& frame,
                   const RecordEdit& edit);

  /// Feeds one observation of `address` through membership::step and
  /// carries out its actions: move partitions, count, journal (tied to
  /// `trace_id` when non-zero), probe. Returns how many partitions moved,
  /// or nullopt when a join or rejoin could not deploy its users.
  std::optional<std::size_t> observe(const std::string& address,
                                     Observation observation,
                                     std::uint64_t trace_id = 0)
      PELICAN_EXCLUDES(transition_mutex_, mutex_);

  /// membership::step on `address`'s row (absent when it has none).
  [[nodiscard]] membership::Step step_of(const std::string& address,
                                         Observation observation) const
      PELICAN_REQUIRES(mutex_);

  /// Writes `address`'s row: an absent backend is forgotten, one that
  /// turns live gets a new pool.
  void set_state(const std::string& address, const membership::State& state)
      PELICAN_REQUIRES(mutex_);

  /// The moving half of observe(): steps again from the current row,
  /// deploys the moved users on their next owners, then commits the new
  /// partitioning. A move out always commits; a move in only when every
  /// deploy succeeded (nullopt otherwise).
  std::optional<std::size_t> transit(const std::string& address,
                                     Observation observation,
                                     membership::Step& step,
                                     Failures& failures)
      PELICAN_REQUIRES(transition_mutex_);

  /// One health round trip with probe_timeout_ms on a fresh connection
  /// (the pool may be what is hung).
  [[nodiscard]] bool probe_backend(const Address& address);

  /// Recovery thread body: a recovery tick per quarantined backend, each
  /// probe_interval_ms.
  void probe_loop();

  /// Sends `frame` to every live backend over its pool and hands each
  /// reply to `on_reply`. A failure (of either) is observed; a success is
  /// no data-plane ok.
  void poll_fleet(std::span<const std::uint8_t> frame,
                  const std::function<void(const std::string&,
                                           std::span<const std::uint8_t>)>&
                      on_reply);

  /// Wakes the pool's waiters and drops its idle connections, for good.
  static void close_pool(Backend& backend);

  [[nodiscard]] std::vector<std::string> backends_in(
      membership::Phase phase) const;

  /// The ledger users whose owner under `next` is not their owner now, by
  /// their owner under `next`.
  [[nodiscard]] std::map<std::string, LedgerSlice> moved_users(
      const Partitioner& next) const PELICAN_REQUIRES(mutex_);

  /// Deploys `users` on `address` over one fresh connection. Returns false
  /// when any deploy fails; a timeout or transport error joins `failures`
  /// (a refusal does not: the engine is up).
  bool redeploy(const std::string& address, const LedgerSlice& users,
                Failures& failures);

  /// Deploys `users` over `socket`. Throws WireError on a transport
  /// failure and std::runtime_error when the engine refuses one. A hedge
  /// passes its `primary` to race each ack against (see hedge_read).
  static void deploy_over(Socket& socket, const LedgerSlice& users,
                          const Socket* primary = nullptr,
                          double timeout_ms = 0.0);

  /// Hedge target for a group owned by `owner`: the next live backend
  /// after it in address order; null when the fleet has no second choice.
  [[nodiscard]] std::shared_ptr<Backend> hedge_target(
      const std::string& owner) const;

  /// Effective hedge delay for this serve() call (auto mode reads the
  /// fan-out p99); < 0 when hedging is disabled.
  [[nodiscard]] double resolve_hedge_delay() const;

  RouterConfig config_;
  membership::Policy policy_;

  /// Serializes transitions with each other and with deploy() and
  /// publish(): a transition takes its ledger slice, deploys it and
  /// commits with none of them in between. Taken before mutex_, and never
  /// by a read.
  Mutex transition_mutex_;
  mutable Mutex mutex_;
  Partitioner partitioner_ PELICAN_GUARDED_BY(mutex_);
  /// The membership table: live and quarantined backends, by address.
  std::map<std::string, Member, std::less<>> members_
      PELICAN_GUARDED_BY(mutex_);
  /// The backend whose partitions are moving out, empty when none. Reads
  /// it still owns wait on moved_cv_ for the commit.
  std::string leaving_ PELICAN_GUARDED_BY(mutex_);
  std::condition_variable moved_cv_;
  std::unordered_map<std::uint32_t, DeployCommand> ledger_
      PELICAN_GUARDED_BY(mutex_);

  obs::Registry metrics_;
  obs::TraceCollector traces_;
  obs::EventJournal events_;
  std::atomic<bool> instrument_{true};
  /// Router-side stage histograms resolved once (reference stability) so
  /// serve() never touches the registry lock.
  obs::Histogram* wire_serialize_hist_ = nullptr;
  obs::Histogram* fanout_hist_ = nullptr;
  obs::Histogram* failover_hist_ = nullptr;
  obs::Histogram* hedge_hist_ = nullptr;
  /// Robustness counters, registered eagerly so they export as 0.
  obs::Counter* hedges_counter_ = nullptr;
  obs::Counter* hedge_wins_counter_ = nullptr;
  obs::Counter* retry_rounds_counter_ = nullptr;
  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* timeouts_counter_ = nullptr;
  obs::Counter* quarantines_counter_ = nullptr;
  obs::Counter* unquarantines_counter_ = nullptr;
  obs::Counter* deadline_shed_counter_ = nullptr;
  /// Router-side serving counters (serve/stats.hpp, kRouterMetricPrefix).
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  /// Hedge budget bookkeeping: hedges_fired_ / forwards_ <= fraction.
  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> hedges_fired_{0};

  /// Recovery prober: wakes every probe_interval_ms and sends a recovery
  /// tick for each quarantined backend. Joined by the destructor.
  Mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool probe_stop_ PELICAN_GUARDED_BY(probe_mutex_) = false;
  std::thread prober_;
};

}  // namespace pelican::router
