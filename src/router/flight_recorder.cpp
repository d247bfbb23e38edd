#include "router/flight_recorder.hpp"

#include <utility>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "router/obs_http.hpp"
#include "router/router.hpp"

namespace pelican::router {
namespace {

/// Strips the query string: routing keys on the path alone.
[[nodiscard]] std::string_view request_path(const obs::HttpRequest& request) {
  const std::string_view target = request.target;
  return target.substr(0, target.find('?'));
}

}  // namespace

FlightRecorder::FlightRecorder(Router& router, FlightRecorderConfig config)
    : FlightRecorder(
          [&router]() -> FlightSample {
            auto fleet = router.fleet_metrics();
            return FlightSample{std::move(fleet.registry),
                                std::move(fleet.events)};
          },
          std::move(config), &router.metrics(), &router.events()) {}

FlightRecorder::FlightRecorder(Source source, FlightRecorderConfig config,
                               obs::Registry* slo_metrics,
                               obs::EventJournal* slo_events)
    : config_(std::move(config)),
      source_(std::move(source)),
      // The sampler's source routes through this recorder so each tick also
      // refreshes the cached registry/event snapshot the HTTP endpoints
      // serve. Safe during construction: the sampler never invokes its
      // source before start()/sample_now().
      sampler_(
          [this]() -> obs::RegistryState {
            FlightSample sample = source_();
            obs::RegistryState registry = sample.registry;
            const MutexLock lock(state_mutex_);
            last_registry_ = std::move(sample.registry);
            last_events_ = std::move(sample.events);
            last_sample_ms_ = obs::unix_now_ms();
            return registry;
          },
          obs::FleetSamplerConfig{config_.sample_interval_ms,
                                  config_.series_capacity,
                                  obs::FleetSamplerConfig{}.quantiles}),
      slo_tracker_(sampler_.store(), slo_metrics, slo_events) {
  for (const auto& spec : config_.slos) slo_tracker_.add(spec);
  // Re-judge every objective right after each tick lands in the store.
  sampler_.set_on_sample([this] { slo_tracker_.evaluate(); });
  if (!config_.http_listen.empty()) {
    http_ = std::make_unique<ConnectionServer>(
        parse_address(config_.http_listen),
        http_body([this](const obs::HttpRequest& request) {
          return handle(request);
        }));
  }
}

FlightRecorder::~FlightRecorder() { stop(); }

void FlightRecorder::start() {
  sampler_.start();
  if (http_) http_->start();
}

void FlightRecorder::stop() {
  if (http_) http_->stop();
  sampler_.stop();
}

void FlightRecorder::sample_now() { sampler_.sample_now(); }

std::vector<obs::Event> FlightRecorder::events() const {
  const MutexLock lock(state_mutex_);
  return last_events_;
}

obs::RegistryState FlightRecorder::last_registry() const {
  const MutexLock lock(state_mutex_);
  return last_registry_;
}

std::string FlightRecorder::metrics_text() const {
  return obs::prometheus_text(last_registry(), /*labels=*/"");
}

std::string FlightRecorder::metrics_json() const {
  return obs::registry_json(last_registry());
}

std::string FlightRecorder::timeseries_json() const {
  return obs::timeseries_json(sampler_.store().snapshot());
}

std::string FlightRecorder::events_json() const {
  const MutexLock lock(state_mutex_);
  return obs::events_json(last_events_);
}

std::string FlightRecorder::slos_json() const {
  return obs::slos_json(slo_tracker_.status());
}

std::string FlightRecorder::flight_dump_json() const {
  std::uint64_t captured = 0;
  {
    const MutexLock lock(state_mutex_);
    captured = last_sample_ms_;
  }
  std::string out = "{\"flight\":{\"captured_unix_ms\":";
  out += std::to_string(captured);
  out += ",\"timeseries\":";
  out += timeseries_json();
  out += ",\"events\":";
  out += events_json();
  out += ",\"slos\":";
  out += slos_json();
  out += "}}";
  return out;
}

obs::HttpResponse FlightRecorder::handle(
    const obs::HttpRequest& request) const {
  obs::HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response.status = 405;
    response.body = "only GET is served here\n";
    return response;
  }
  const std::string_view path = request_path(request);
  if (path == "/healthz") {
    response.body = "ok\n";
  } else if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = metrics_text();
  } else if (path == "/metrics.json") {
    response.content_type = "application/json";
    response.body = metrics_json();
  } else if (path == "/timeseries") {
    response.content_type = "application/json";
    response.body = timeseries_json();
  } else if (path == "/events") {
    response.content_type = "application/json";
    response.body = events_json();
  } else if (path == "/slo" || path == "/slos") {
    response.content_type = "application/json";
    response.body = slos_json();
  } else if (path == "/flight") {
    response.content_type = "application/json";
    response.body = flight_dump_json();
  } else if (path == "/") {
    response.body =
        "pelican flight recorder\n"
        "  /metrics       Prometheus text exposition\n"
        "  /metrics.json  registry as JSON\n"
        "  /timeseries    ring-buffered rates and quantiles\n"
        "  /events        fleet-merged event journal\n"
        "  /slo           burn-rate objective status\n"
        "  /flight        full dump (timeseries + events + slos)\n"
        "  /healthz       liveness\n";
  } else {
    response.status = 404;
    response.body = "unknown endpoint; GET / lists what is served\n";
  }
  if (request.method == "HEAD") response.body.clear();
  return response;
}

}  // namespace pelican::router
