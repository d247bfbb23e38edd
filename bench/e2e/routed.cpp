// routed_b1 and routed_publish: open-loop batch-1 reads through
// Router -> wire -> two pelican_engined processes. routed_publish adds a
// closed loop of model updates (ModelStore::put_next on the fleet-shared
// store, Router::publish, one read that must see the new version) beside a
// lighter read load.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/privacy_layer.hpp"
#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "router/local_fleet.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"
#include "store/model_store.hpp"

#ifndef PELICAN_ENGINED_BINARY
#define PELICAN_ENGINED_BINARY ""
#endif

namespace pelican::e2e {

namespace {

constexpr std::uint32_t kUsers = 256;
constexpr std::size_t kLocations = 40;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kTopK = 3;
constexpr double kTemperature = core::PrivacyLayer::kStrongTemperature;
constexpr const char* kScope = "personal";
constexpr std::size_t kProcesses = 2;
constexpr std::size_t kWindowPool = 4096;
/// One routed answer in this many is checked against the direct engine.
constexpr std::uint64_t kCheckEvery = 1000;
/// Model updates run at 50 per second.
constexpr auto kPublishPeriod = std::chrono::milliseconds(20);

const mobility::EncodingSpec kSpec{mobility::SpatialLevel::kBuilding,
                                   kLocations};

struct Fleet {
  std::unique_ptr<store::ModelStore> store;  ///< the fleet-shared store
  std::unique_ptr<router::LocalFleet> processes;
  std::unique_ptr<router::Router> router;

  /// Drains the engines, then SIGKILLs and reaps whatever did not exit.
  void stop() {
    if (router) {
      try {
        router->drain_fleet();
      } catch (const std::exception&) {
        // The destructor below kills what the drain did not reach.
      }
    }
    router.reset();
    processes.reset();
  }
  ~Fleet() { stop(); }
};

/// The workload's input: version 1 of every user's model in the
/// fleet-shared store. Written once, outside the timed set-up.
void write_models(const Options& options, const std::filesystem::path& root) {
  std::filesystem::remove_all(root);
  store::ModelStore models(
      std::make_unique<store::FilesystemBackend>(root / "store"));
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    models.put({kScope, user, 1},
               user_model(options.seed, user, 1, kSpec, kHidden));
  }
}

/// Set-up: engines spawned on the shared store, users deployed.
std::unique_ptr<Fleet> bring_up(const std::filesystem::path& root,
                                SpanLog& spans) {
  const SpanLog::Scope setup(spans, "setup");
  auto fleet = std::make_unique<Fleet>();
  fleet->store = std::make_unique<store::ModelStore>(
      std::make_unique<store::FilesystemBackend>(root / "store"));
  {
    const SpanLog::Scope span(spans, "fleet.spawn", setup.id());
    router::LocalFleetConfig config;
    config.root = root;
    config.processes = kProcesses;
    config.scope = kScope;
    config.engined_binary = PELICAN_ENGINED_BINARY;
    config.extra_args = {"--max-batch", "32", "--max-delay-us", "2000",
                         "--shards", "16"};
    fleet->processes = std::make_unique<router::LocalFleet>(config);
  }
  fleet->router = std::make_unique<router::Router>();
  fleet->router->set_instrumentation(false);
  for (const auto& address : fleet->processes->addresses()) {
    (void)fleet->router->add_backend(address);
  }
  {
    const SpanLog::Scope span(spans, "router.deploy", setup.id());
    for (std::uint32_t user = 0; user < kUsers; ++user) {
      fleet->router->deploy(user, 1, kSpec, kTemperature);
    }
  }
  return fleet;
}

struct Sampled {
  serve::PredictRequest request;
  serve::PredictResponse response;
};

/// What one sender thread saw in the measured phase.
struct ReadLog {
  std::vector<Timed> plain;       ///< scheduled send -> answer, plain slices
  std::vector<double> traced_ms;  ///< same, instrumented slices
  std::vector<double> serve_ms;   ///< the Router::serve call alone
  std::vector<double> traced_serve_ms;
  std::vector<double> lag_ms;     ///< actual send - scheduled send
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<Sampled> sampled;
};

struct PublishLog {
  std::vector<double> cycle_ms;    ///< put_next start -> publish ack
  std::vector<double> put_next_ms;
  std::vector<double> publish_ms;  ///< Router::publish alone
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_version = 0;
  std::uint64_t not_visible = 0;
  std::vector<Sampled> sampled;  ///< the read after each publish
};

bool answered(const std::vector<serve::PredictResponse>& responses) {
  return responses.size() == 1 && responses[0].ok &&
         responses[0].locations.size() == kTopK;
}

/// Poisson arrivals at `rate` per second from one thread; each request is
/// timed from when it was due, so a stall also delays those behind it.
void send_reads(const Options& options, router::Router& front_door,
                const std::vector<mobility::Window>& pool, double rate,
                std::uint64_t stream, Clock::time_point phase_start,
                Clock::time_point measure_start, Clock::time_point phase_end,
                SpanLog& spans, ReadLog& log) {
  Rng rng(split_mix64(options.seed * 1000003ULL + stream));
  Clock::time_point due = phase_start;
  std::uint64_t answered_count = 0;
  for (;;) {
    const double gap_s = -std::log(1.0 - rng.uniform()) / rate;
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap_s));
    if (due >= phase_end) break;
    serve::PredictRequest request;
    request.user_id = static_cast<std::uint32_t>(rng.below(kUsers));
    request.window = pool[rng.below(pool.size())];
    request.k = kTopK;

    const bool measured = due >= measure_start;
    const double at_s = seconds_between(measure_start, due);
    const bool traced = measured && traced_slice(options, at_s);
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    std::vector<serve::PredictResponse> responses;
    {
      std::optional<SpanLog::Scope> span;
      if (traced) span.emplace(spans, "router.serve");
      try {
        responses = front_door.serve(
            std::span<const serve::PredictRequest>(&request, 1));
      } catch (const std::exception&) {
        responses.clear();
      }
    }
    const Clock::time_point done = Clock::now();
    if (!measured) continue;

    const bool ok = answered(responses);
    ++log.sent;
    if (!ok) ++log.failed;
    log.lag_ms.push_back(ms_between(due, sent));
    if (ok) {
      if (traced) {
        log.traced_ms.push_back(ms_between(due, done));
        log.traced_serve_ms.push_back(ms_between(sent, done));
      } else {
        log.plain.push_back(
            {seconds_between(measure_start, done), ms_between(due, done)});
        log.serve_ms.push_back(ms_between(sent, done));
      }
      if (answered_count++ % kCheckEvery == 0) {
        log.sampled.push_back({request, responses[0]});
      }
    }
  }
}

/// Closed loop of model updates paced at 50 per second.
void publish_models(const Options& options, Fleet& fleet,
                    const std::vector<mobility::Window>& pool,
                    Clock::time_point phase_start,
                    Clock::time_point measure_start,
                    Clock::time_point phase_end, SpanLog& spans,
                    PublishLog& log) {
  Rng rng(split_mix64(options.seed * 1000003ULL + 999));
  std::vector<std::uint32_t> versions(kUsers, 1);
  Clock::time_point due = phase_start;
  while (due < phase_end) {
    std::this_thread::sleep_until(due);
    const auto user = static_cast<std::uint32_t>(rng.below(kUsers));
    const std::uint32_t expected = versions[user] + 1;
    nn::SequenceClassifier model =
        user_model(options.seed, user, expected, kSpec, kHidden);
    serve::PredictRequest request;
    request.user_id = user;
    request.window = pool[rng.below(pool.size())];
    request.k = kTopK;

    const Clock::time_point start = Clock::now();
    const bool measured = start >= measure_start;
    const bool traced =
        measured &&
        traced_slice(options, seconds_between(measure_start, start));
    std::optional<SpanLog::Scope> cycle;
    if (traced) cycle.emplace(spans, "publish.cycle");
    const std::uint64_t parent = cycle ? cycle->id() : 0;
    bool ok = true;
    try {
      std::uint32_t version = 0;
      {
        std::optional<SpanLog::Scope> span;
        if (traced) span.emplace(spans, "store.put_next", parent);
        version = fleet.store->put_next(kScope, user, std::move(model));
      }
      const Clock::time_point stored = Clock::now();
      {
        std::optional<SpanLog::Scope> span;
        if (traced) span.emplace(spans, "router.publish", parent);
        fleet.router->publish(user, version);
      }
      const Clock::time_point acked = Clock::now();
      versions[user] = version;
      std::vector<serve::PredictResponse> responses;
      {
        std::optional<SpanLog::Scope> span;
        if (traced) span.emplace(spans, "router.serve", parent);
        responses = fleet.router->serve(
            std::span<const serve::PredictRequest>(&request, 1));
      }
      if (measured) {
        log.cycle_ms.push_back(ms_between(start, acked));
        log.put_next_ms.push_back(ms_between(start, stored));
        log.publish_ms.push_back(ms_between(stored, acked));
        if (version != expected) ++log.wrong_version;
        if (!answered(responses) || responses[0].model_version != version) {
          ++log.not_visible;
          ok = false;
        } else {
          log.sampled.push_back({request, responses[0]});
        }
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (measured) {
      ++log.attempted;
      if (!ok) ++log.failed;
    }
    due = std::max(due + kPublishPeriod, Clock::now());
  }
}

/// Re-computes each sampled answer with a direct in-process
/// DeployedModel::predict_top_k on the seeded weights of the version that
/// served it. Returns the number of mismatches.
std::uint64_t count_mismatches(const Options& options,
                               const std::vector<Sampled>& sampled) {
  std::uint64_t mismatches = 0;
  for (const Sampled& s : sampled) {
    const std::uint32_t version = s.response.model_version;
    core::DeployedModel direct(
        user_model(options.seed, s.request.user_id, version, kSpec, kHidden),
        kSpec, core::PrivacyLayer(kTemperature),
        core::DeploymentSite::kInCloud, version);
    if (direct.predict_top_k(s.request.window, s.request.k) !=
        s.response.locations) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Engine-side serving counters summed over the fleet.
serve::ServerStats::State engine_totals(
    const router::Router::FleetMetrics& metrics) {
  serve::ServerStats::State total;
  for (const auto& [address, engine] : metrics.engines) {
    total.batches += engine.stats.batches;
    total.batch_rows += engine.stats.batch_rows;
    total.rejected += engine.stats.rejected;
    total.shed += engine.stats.shed;
  }
  return total;
}

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

void run_routed(const Options& options, bool with_publish, Report& report,
                SpanLog& spans) {
  const double read_rate = with_publish ? 6000.0 : 12000.0;
  const std::size_t senders = with_publish ? 3 : 4;
  const double warmup_s = options.smoke ? 0.3 : 1.0;
  const std::filesystem::path root =
      options.out / ("fleet-" + std::to_string(::getpid()));

  std::vector<mobility::Window> pool;
  {
    Rng rng(split_mix64(options.seed));
    pool.reserve(kWindowPool);
    for (std::size_t i = 0; i < kWindowPool; ++i) {
      pool.push_back(random_window(rng, kLocations));
    }
  }

  // Every set-up repetition but the last is torn down again.
  write_models(options, root);
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < setup_reps(options); ++rep) {
    if (fleet) fleet->stop();
    fleet.reset();
    const Clock::time_point start = Clock::now();
    fleet = bring_up(root, spans);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  router::Router& front_door = *fleet->router;
  // Engine- and router-side histograms and counters are diffed over the
  // whole load (warm-up included): pulling them at the edge of the
  // measured phase would stall the traffic being measured.
  const router::Router::FleetMetrics before = front_door.fleet_metrics();

  const Clock::time_point phase_start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point measure_start =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(warmup_s));
  const Clock::time_point phase_end =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds));

  std::vector<ReadLog> reads(senders);
  PublishLog publishes;
  // jthreads: an exception before the joins below still joins them.
  std::vector<std::jthread> threads;
  threads.reserve(senders + 1);
  for (std::size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      send_reads(options, front_door, pool,
                 read_rate / static_cast<double>(senders), s, phase_start,
                 measure_start, phase_end, spans, reads[s]);
    });
  }
  if (with_publish) {
    threads.emplace_back([&] {
      publish_models(options, *fleet, pool, phase_start, measure_start,
                     phase_end, spans, publishes);
    });
  }

  // In a traced run, router instrumentation follows the slices.
  if (options.traced) {
    for (double t = 0.0; t < options.seconds; t += kSliceSeconds) {
      std::this_thread::sleep_until(
          measure_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(t)));
      front_door.set_instrumentation(traced_slice(options, t));
    }
  }
  for (auto& thread : threads) thread.join();
  front_door.set_instrumentation(false);
  const router::Router::FleetMetrics after = front_door.fleet_metrics();

  double rss_mb = peak_rss_mb();
  for (std::size_t i = 0; i < fleet->processes->size(); ++i) {
    rss_mb += peak_rss_mb(fleet->processes->pid(i));
  }
  fleet->stop();
  fleet.reset();
  std::filesystem::remove_all(root);

  ReadLog all;
  for (const ReadLog& log : reads) {
    append(all.plain, log.plain);
    append(all.traced_ms, log.traced_ms);
    append(all.serve_ms, log.serve_ms);
    append(all.traced_serve_ms, log.traced_serve_ms);
    append(all.lag_ms, log.lag_ms);
    append(all.sampled, log.sampled);
    all.sent += log.sent;
    all.failed += log.failed;
  }
  std::vector<double> plain_ms;
  plain_ms.reserve(all.plain.size());
  for (const Timed& read : all.plain) plain_ms.push_back(read.ms);

  // Correctness.
  const std::uint64_t read_mismatches = count_mismatches(options, all.sampled);
  report.check("routed answers equal direct predict_top_k (" +
                   std::to_string(all.sampled.size()) + " sampled)",
               !all.sampled.empty() && read_mismatches == 0,
               std::to_string(read_mismatches) + " mismatches");
  std::uint64_t publish_mismatches = 0;
  if (with_publish) {
    publish_mismatches = count_mismatches(options, publishes.sampled);
    report.check("every publish visible at the next read (" +
                     std::to_string(publishes.attempted) + " publishes)",
                 publishes.attempted > 0 && publishes.not_visible == 0,
                 std::to_string(publishes.not_visible) + " not visible");
    report.check("put_next allocates the next version",
                 publishes.wrong_version == 0,
                 std::to_string(publishes.wrong_version) + " out of order");
    report.check("post-publish answers equal direct predict_top_k",
                 publish_mismatches == 0,
                 std::to_string(publish_mismatches) + " mismatches");
  }
  report.check("no failed reads", all.failed == 0,
               std::to_string(all.failed) + " of " +
                   std::to_string(all.sent));
  report.add_ops(all.sent + publishes.attempted,
                 all.failed + publishes.failed + publishes.wrong_version +
                     read_mismatches + publish_mismatches);

  // End to end (plain slices only).
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", rss_mb);
  // Not scaled to nominal machine speed: the reference cannot run beside
  // an open loop without taking its cores, and sampled only before and
  // after the load it did not follow the read latency's drift.
  report_phase(report, summarize_by_second(options, all.plain, 1.0),
               MachineSpeed(1), plain_ms);

  // Per layer.
  const obs::RegistryState delta =
      obs::delta_state(after.registry, before.registry);
  const serve::ServerStats::State engines_after = engine_totals(after);
  const serve::ServerStats::State engines_before = engine_totals(before);
  const auto stage = [&](obs::Stage s, double percentile) {
    return histogram_percentile(delta, obs::stage_metric_name(s), percentile);
  };
  report.set("gen.sent", static_cast<double>(all.sent));
  report.set("gen.failed", static_cast<double>(all.failed));
  report.set("gen.lag_p99_ms", quantile(all.lag_ms, 0.99));
  std::vector<double> serve_all = all.serve_ms;
  append(serve_all, all.traced_serve_ms);
  report.set("router.serve_p50_ms", quantile(serve_all, 0.50));
  report.set("router.serve_p99_ms", quantile(serve_all, 0.99));
  const double serialize_p50 = stage(obs::Stage::kWireSerialize, 50);
  const double fanout_p50 = stage(obs::Stage::kRouterFanout, 50);
  report.set("router.wire_serialize_p50_ms", serialize_p50);
  report.set("router.fanout_p50_ms", fanout_p50);
  report.set("router.fanout_p99_ms", stage(obs::Stage::kRouterFanout, 99));
  if (options.traced) {
    // The router records its stage histograms only while instrumented, so
    // the serve time it is compared with comes from the same slices.
    report.set("router.unattributed_p50_ms",
               quantile(all.traced_serve_ms, 0.50) - serialize_p50 -
                   fanout_p50);
  }
  report.set("router.retry_rounds", counter_value(delta, "router_retry_rounds_total"));
  report.set("router.hedges", counter_value(delta, "router_hedges_total"));
  report.set("router.timeouts", counter_value(delta, "router_request_timeouts_total"));
  report.set("router.reconnects", counter_value(delta, "router_pool_reconnects_total"));
  if (with_publish) {
    report.set("router.publish_p50_ms", quantile(publishes.publish_ms, 0.50));
    report.set("router.publish_p99_ms", quantile(publishes.publish_ms, 0.99));
    report.set("publish_p50_ms", quantile(publishes.cycle_ms, 0.50));
    report.set("publish_p99_ms", quantile(publishes.cycle_ms, 0.99));
    report.set("store.put_next_p50_ms", quantile(publishes.put_next_ms, 0.50));
    report.set("store.put_next_p99_ms", quantile(publishes.put_next_ms, 0.99));
  }
  report.set("serve.batch_assembly_p50_ms",
             stage(obs::Stage::kBatchAssembly, 50));
  const double batches =
      static_cast<double>(engines_after.batches - engines_before.batches);
  report.set("serve.mean_batch_rows",
             batches == 0.0 ? 0.0
                            : static_cast<double>(engines_after.batch_rows -
                                                  engines_before.batch_rows) /
                                  batches);
  report.set("serve.rejected",
             static_cast<double>((engines_after.rejected + engines_after.shed) -
                                 (engines_before.rejected + engines_before.shed)));
  report.set("serve.deadline_shed",
             counter_value(delta, "requests_deadline_shed_total"));
  report.set("core.encode_p50_ms", stage(obs::Stage::kEncode, 50));
  report.set("core.forward_p50_ms", stage(obs::Stage::kForward, 50));
  report.set("core.rank_p50_ms", stage(obs::Stage::kRankTopK, 50));
  // The routed models are fp32, so the engine's forward stage is the fp32
  // forward at batch ~1.
  report.set("nn.fp32_forward_p50_ms", stage(obs::Stage::kForward, 50));
  if (options.traced) {
    report.set("obs.tracing_overhead_frac",
               overhead_frac(plain_ms, all.traced_ms));
  }
}

}  // namespace pelican::e2e
