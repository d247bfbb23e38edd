// FlightRecorder: the assembled flight recorder over a live fleet.
//
// Composes the obs building blocks around a Router (or any metrics+events
// source):
//
//   FleetSampler   polls Router::fleet_metrics() every sample_interval_ms,
//                  ring-buffering exact counter rates and per-interval
//                  histogram quantiles (obs/timeseries).
//   SloTracker     re-judges declarative objectives after every tick;
//                  breach/recovery transitions land in the router's
//                  metrics registry AND its event journal, so they ship
//                  through the same pipes as everything else.
//   event cache    the latest fleet-merged event journal (router +
//                  engines, wall-clock ordered), kept from each sample so
//                  /events answers without a fresh fleet pull.
//   HTTP endpoint  optional: mounts the whole thing at http_listen —
//                  /metrics (Prometheus text), /metrics.json,
//                  /timeseries, /events, /slo, /healthz — as an http_body
//                  (router/obs_http) on a ConnectionServer.
//
// The recorder only POLLS: it holds no locks of the router beyond what
// fleet_metrics() takes, and a scrape reads the recorder's own cached
// state, so exposition load never touches the serving path. One recorder
// per router; `pelican_statsz --serve` builds one over a scrape loop
// instead of an in-process router (the generic-source constructor).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "obs/events.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "router/socket.hpp"

namespace pelican::router {

class Router;

struct FlightRecorderConfig {
  double sample_interval_ms = 1000.0;
  std::size_t series_capacity = 600;  ///< ring length of every series
  std::vector<obs::SloSpec> slos;
  /// "unix:<path>" / "tcp:<host>:<port>" to mount the HTTP endpoint;
  /// empty = no server (the recorder still samples and evaluates).
  std::string http_listen;
};

class FlightRecorder {
 public:
  /// One poll's worth of fleet truth.
  struct FlightSample {
    obs::RegistryState registry;
    std::vector<obs::Event> events;
  };
  using Source = std::function<FlightSample()>;

  /// Records `router` (must outlive the recorder). SLO transition metrics
  /// and events go into the router's own registry/journal, so they flow
  /// into subsequent samples and fleet scrapes automatically.
  explicit FlightRecorder(Router& router, FlightRecorderConfig config = {});

  /// Generic-source form (statsz scrape loops, tests). `slo_metrics` /
  /// `slo_events` optionally receive SLO transitions; both must outlive
  /// the recorder.
  FlightRecorder(Source source, FlightRecorderConfig config,
                 obs::Registry* slo_metrics = nullptr,
                 obs::EventJournal* slo_events = nullptr);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Starts the background sampler (and the HTTP server when configured).
  void start();
  void stop();

  /// One synchronous sample tick (tests, --watch loops); works with or
  /// without start().
  void sample_now();

  [[nodiscard]] obs::TimeSeriesStore& store() noexcept {
    return sampler_.store();
  }
  [[nodiscard]] obs::FleetSampler& sampler() noexcept { return sampler_; }
  [[nodiscard]] obs::SloTracker& slos() noexcept { return slo_tracker_; }

  /// The fleet-merged event journal of the LAST sample (wall-clock order).
  [[nodiscard]] std::vector<obs::Event> events() const;

  /// Renderings of the recorder's cached state (what the HTTP endpoints
  /// serve; callable directly for dumps and tests).
  [[nodiscard]] std::string metrics_text() const;
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string timeseries_json() const;
  [[nodiscard]] std::string events_json() const;
  [[nodiscard]] std::string slos_json() const;
  /// Everything at once: `{"flight":{"captured_unix_ms":...,
  /// "timeseries":...,"events":...,"slos":...}}` — the CI chaos-lane
  /// artifact format tools/bench_diff.py renders timelines from.
  [[nodiscard]] std::string flight_dump_json() const;

  /// Routes one parsed request to the endpoints above (the http_body
  /// handler; public so tests can drive routing without sockets).
  [[nodiscard]] obs::HttpResponse handle(const obs::HttpRequest& request)
      const;

  [[nodiscard]] bool has_http() const noexcept { return http_ != nullptr; }
  /// Bound exposition address; only valid when has_http().
  [[nodiscard]] const Address& http_address() const { return http_->address(); }

 private:
  [[nodiscard]] obs::RegistryState last_registry() const;

  const FlightRecorderConfig config_;
  const Source source_;

  /// The latest sample's registry + merged events, written by the sampler
  /// tick, read by scrapes.
  mutable Mutex state_mutex_;
  obs::RegistryState last_registry_ PELICAN_GUARDED_BY(state_mutex_);
  std::vector<obs::Event> last_events_ PELICAN_GUARDED_BY(state_mutex_);
  std::uint64_t last_sample_ms_ PELICAN_GUARDED_BY(state_mutex_) = 0;

  obs::FleetSampler sampler_;
  obs::SloTracker slo_tracker_;
  std::unique_ptr<ConnectionServer> http_;
};

}  // namespace pelican::router
