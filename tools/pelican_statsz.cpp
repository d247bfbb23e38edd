// pelican_statsz — scrape a live fleet's observability surface.
//
// Connects to each engine address, issues the kMetrics verb, and prints the
// result as Prometheus-style text (default) or JSON (--json):
//
//   pelican_statsz --engine unix:/tmp/pelican/e0.sock
//                  --engine unix:/tmp/pelican/e1.sock [--json] [--out PATH]
//                  [--router-file PATH] [--watch SECS] [--serve ADDR]
//
// The router is not an engine (it has no listen socket to scrape), but its
// self-report — Router::self_report() serialized with encode_metrics_reply,
// carrying the hedge/retry/quarantine counters and router-side stage
// histograms — can be dropped into a file and merged here via
// --router-file, appearing as the pseudo-engine "router".
//
// The fleet view is the EXACT bucket-wise merge of the per-engine stage
// histograms (all histograms share fixed boundaries — see obs/metrics.hpp),
// with p50/p99 computed from the merged buckets. Trace journal records from
// every engine are pooled and sorted by trace id, so one routed request's
// engine-side and router-side spans (which share an id) print adjacently.
// Engine event journals are pooled the same way (wall-clock order).
//
// --watch SECS re-scrapes every SECS seconds and prints counter RATES and
// per-interval histogram quantiles, computed with the same exact delta
// logic the in-process flight recorder uses (obs::delta_state): counters
// clamp at zero across engine restarts, histogram quantiles come from
// bucket-wise interval subtraction. The first tick is the baseline.
//
// --serve ADDR mounts a full flight-recorder HTTP endpoint over the
// scraped fleet: a FlightRecorder whose source is "scrape every engine and
// merge", serving /metrics, /metrics.json, /timeseries, /events, /slo,
// /flight, /healthz until SIGINT/SIGTERM. ADDR is a socket address
// ("tcp:127.0.0.1:9090", "unix:/tmp/statsz.sock") or a bare port (TCP on
// 127.0.0.1). Scrape cadence is --interval MS (default 1000).
//
// Exit status: 0 when every engine answered, 1 when any scrape failed
// (partial results are still printed for the engines that answered).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "router/flight_recorder.hpp"
#include "router/socket.hpp"
#include "router/wire.hpp"

using namespace pelican;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " --engine ADDR [--engine ADDR ...] [--json] [--out PATH]\n"
         "       [--router-file PATH] [--watch SECS] [--serve ADDR]\n"
         "       [--interval MS]\n"
         "ADDR is unix:<path>, tcp:<host>:<port>, or (for --serve) a bare\n"
         "port. --router-file merges an encode_metrics_reply dump of the\n"
         "router's own self_report() as the pseudo-engine \"router\".\n"
         "--watch re-scrapes every SECS seconds and prints counter rates;\n"
         "--serve mounts the flight-recorder HTTP endpoint over the scraped\n"
         "fleet until SIGINT.\n";
  return 2;
}

router::EngineMetricsReport scrape(const std::string& address) {
  router::Socket socket =
      router::Socket::connect_to(router::parse_address(address));
  socket.send_frame(router::encode_metrics());
  return router::decode_metrics_reply(socket.recv_frame());
}

router::EngineMetricsReport read_router_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read " + path);
  const std::vector<std::uint8_t> frame(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  return router::decode_metrics_reply(frame);
}

struct ScrapeOptions {
  std::vector<std::string> engines;
  std::string router_file;
};

struct FleetScrape {
  std::vector<std::pair<std::string, router::EngineMetricsReport>> reports;
  obs::RegistryState fleet;
  std::vector<obs::Event> events;
  bool all_ok = true;
};

/// One pass over every engine (+ the optional router file): per-engine
/// reports, the exact fleet merge, and the pooled event journal. Scrape
/// failures are reported on stderr (once per pass) and skipped.
FleetScrape scrape_fleet(const ScrapeOptions& options, bool quiet = false) {
  FleetScrape out;
  for (const std::string& address : options.engines) {
    try {
      router::EngineMetricsReport report = scrape(address);
      for (obs::TraceRecord& rec : report.traces) rec.source = address;
      out.reports.emplace_back(address, std::move(report));
    } catch (const std::exception& error) {
      if (!quiet) {
        std::cerr << "pelican_statsz: scrape of " << address
                  << " failed: " << error.what() << "\n";
      }
      out.all_ok = false;
    }
  }
  if (!options.router_file.empty()) {
    try {
      router::EngineMetricsReport report =
          read_router_file(options.router_file);
      for (obs::TraceRecord& rec : report.traces) rec.source = "router";
      out.reports.emplace_back("router", std::move(report));
    } catch (const std::exception& error) {
      if (!quiet) {
        std::cerr << "pelican_statsz: reading " << options.router_file
                  << " failed: " << error.what() << "\n";
      }
      out.all_ok = false;
    }
  }
  for (const auto& [address, report] : out.reports) {
    obs::merge_state(out.fleet, report.registry);
    obs::merge_events(out.events, report.events, address);
  }
  obs::sort_events(out.events);
  return out;
}

/// --watch: re-scrape on an interval and print exact interval rates — the
/// same delta logic FleetSampler uses, driven by a terminal loop.
int run_watch(const ScrapeOptions& options, double period_s,
              std::uint64_t max_ticks) {
  obs::RegistryState prev;
  bool has_prev = false;
  std::uint64_t prev_ms = 0;
  bool all_ok = true;
  for (std::uint64_t tick = 0; max_ticks == 0 || tick < max_ticks; ++tick) {
    if (g_stop.load()) break;
    const FleetScrape pass = scrape_fleet(options);
    all_ok = all_ok && pass.all_ok;
    const std::uint64_t now_ms = obs::unix_now_ms();
    if (!has_prev) {
      std::cout << "# baseline scrape of " << pass.reports.size()
                << " engines; rates start next tick\n"
                << std::flush;
    } else {
      const obs::RegistryState delta = obs::delta_state(pass.fleet, prev);
      const double dt_s =
          std::max(1e-6, static_cast<double>(now_ms - prev_ms) / 1000.0);
      std::cout << "# t+" << (tick * period_s) << "s interval=" << dt_s
                << "s engines=" << pass.reports.size() << "\n";
      for (const auto& [name, value] : delta.counters) {
        std::cout << "rate " << name << " "
                  << (static_cast<double>(value) / dt_s) << "/s\n";
      }
      for (const auto& [name, state] : delta.histograms) {
        if (state.count == 0) continue;
        std::cout << "hist " << name << " rate="
                  << (static_cast<double>(state.count) / dt_s)
                  << "/s p50=" << obs::Histogram::percentile_of(state, 50.0)
                  << "ms p99=" << obs::Histogram::percentile_of(state, 99.0)
                  << "ms\n";
      }
      std::cout << std::flush;
    }
    prev = pass.fleet;
    prev_ms = now_ms;
    has_prev = true;
    if (max_ticks != 0 && tick + 1 >= max_ticks) break;
    // Sleep in short slices so Ctrl-C is honored promptly.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(period_s);
    while (!g_stop.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return all_ok ? 0 : 1;
}

/// --serve: mount a FlightRecorder over the scrape loop and park until a
/// signal (or --serve-seconds, for tests) ends it.
int run_serve(const ScrapeOptions& options, const std::string& listen,
              double interval_ms, double serve_seconds) {
  router::FlightRecorderConfig config;
  config.sample_interval_ms = interval_ms;
  config.http_listen = listen;
  router::FlightRecorder recorder(
      [options]() -> router::FlightRecorder::FlightSample {
        FleetScrape pass = scrape_fleet(options, /*quiet=*/true);
        return {std::move(pass.fleet), std::move(pass.events)};
      },
      std::move(config));
  recorder.start();
  std::cerr << "pelican_statsz: serving flight recorder on "
            << recorder.http_address().to_string() << " (scrape every "
            << interval_ms << "ms); Ctrl-C to stop\n";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(serve_seconds);
  while (!g_stop.load()) {
    if (serve_seconds > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  recorder.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ScrapeOptions options;
  bool json = false;
  std::string out_path;
  double watch_s = 0.0;
  std::uint64_t watch_count = 0;  ///< 0 = until signal (hidden, for tests)
  std::string serve_listen;
  double interval_ms = 1000.0;
  double serve_seconds = 0.0;  ///< 0 = until signal (hidden, for tests)
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "--engine" && i + 1 < argc) {
      options.engines.emplace_back(argv[++i]);
    } else if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (flag == "--router-file" && i + 1 < argc) {
      options.router_file = argv[++i];
    } else if (flag == "--watch" && i + 1 < argc) {
      watch_s = std::stod(argv[++i]);
    } else if (flag == "--watch-count" && i + 1 < argc) {
      watch_count = std::stoull(argv[++i]);
    } else if (flag == "--serve" && i + 1 < argc) {
      serve_listen = argv[++i];
    } else if (flag == "--interval" && i + 1 < argc) {
      interval_ms = std::stod(argv[++i]);
    } else if (flag == "--serve-seconds" && i + 1 < argc) {
      serve_seconds = std::stod(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (options.engines.empty() && options.router_file.empty()) {
    return usage(argv[0]);
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!serve_listen.empty()) {
    // A bare port means TCP on loopback.
    if (std::all_of(serve_listen.begin(), serve_listen.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; })) {
      serve_listen = "tcp:127.0.0.1:" + serve_listen;
    }
    try {
      return run_serve(options, serve_listen, interval_ms, serve_seconds);
    } catch (const std::exception& error) {
      std::cerr << "pelican_statsz: serve failed: " << error.what() << "\n";
      return 1;
    }
  }
  if (watch_s > 0.0 || watch_count > 0) {
    return run_watch(options, std::max(watch_s, 0.05), watch_count);
  }

  const FleetScrape pass = scrape_fleet(options);
  const bool all_ok = pass.all_ok;
  const auto& reports = pass.reports;
  const obs::RegistryState& fleet = pass.fleet;

  // Pooled trace journal, grouped by trace id.
  std::vector<obs::TraceRecord> traces;
  for (const auto& [address, report] : reports) {
    traces.insert(traces.end(), report.traces.begin(), report.traces.end());
  }
  std::sort(traces.begin(), traces.end(),
            [](const obs::TraceRecord& a, const obs::TraceRecord& b) {
              return a.trace_id != b.trace_id ? a.trace_id < b.trace_id
                                              : a.source < b.source;
            });

  std::string rendered;
  if (json) {
    rendered = "{\"statsz\":{\"fleet\":" + obs::registry_json(fleet);
    rendered += ",\"engines\":{";
    bool first = true;
    for (const auto& [address, report] : reports) {
      if (!first) rendered += ',';
      first = false;
      rendered += '"' + obs::json_escape(address) + "\":{";
      rendered += "\"registry\":" + obs::registry_json(report.registry);
      rendered += '}';
    }
    rendered += "},\"traces\":" + obs::traces_json(traces);
    rendered += ",\"events\":" + obs::events_json(pass.events) + "}}";
    rendered += '\n';
  } else {
    rendered += "# fleet (exact bucket-wise merge of " +
                std::to_string(reports.size()) + " engines)\n";
    rendered += obs::prometheus_text(fleet, "");
    for (const auto& [address, report] : reports) {
      rendered += "# engine " + address + "\n";
      rendered += obs::prometheus_text(
          report.registry,
          "engine=\"" + obs::prometheus_escape_label_value(address) + "\"");
    }
    rendered += "# slow-request journal (" + std::to_string(traces.size()) +
                " records, grouped by trace id)\n";
    for (const obs::TraceRecord& rec : traces) {
      rendered += "trace " + std::to_string(rec.trace_id) + " source=" +
                  rec.source + " total_ms=" + std::to_string(rec.total_ms);
      for (const obs::Span& span : rec.spans) {
        rendered += ' ';
        rendered += obs::to_string(span.stage);
        rendered += '=' + std::to_string(span.duration_ms()) + "ms";
      }
      rendered += '\n';
    }
    rendered += "# event journal (" + std::to_string(pass.events.size()) +
                " records, wall-clock order)\n";
    for (const obs::Event& event : pass.events) {
      rendered += "event " + std::to_string(event.unix_ms) + " " +
                  std::string(obs::to_string(event.type)) + " source=" +
                  event.source + " subject=" + event.subject;
      if (event.trace_id != 0) {
        rendered += " trace=" + std::to_string(event.trace_id);
      }
      if (!event.detail.empty()) rendered += " :: " + event.detail;
      rendered += '\n';
    }
  }

  if (!out_path.empty()) {
    std::ofstream file(out_path, std::ios::trunc);
    if (!file) {
      std::cerr << "pelican_statsz: cannot write " << out_path << "\n";
      return 1;
    }
    file << rendered;
  } else {
    std::cout << rendered;
  }
  return all_ok ? 0 : 1;
}
