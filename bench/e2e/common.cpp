#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/table.hpp"

#ifndef PELICAN_E2E_GIT_SHA
#define PELICAN_E2E_GIT_SHA "unknown"
#endif
#ifndef PELICAN_E2E_BUILD_TYPE
#define PELICAN_E2E_BUILD_TYPE "unknown"
#endif

namespace pelican::e2e {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the benchmark can emit, in report order. The first four are
// the end-to-end metrics BENCHMARK.json bounds; each workload sets all of
// them. The per-layer block is what a --traced run reports; a workload
// leaves the layers it never calls at 0. The rest are diagnostics.
constexpr MetricDef kCatalog[] = {
    // End to end.
    {"latency_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
    // Load generator.
    {"gen.sent", "count"},
    {"gen.failed", "count"},
    {"gen.lag_p99_ms", "ms"},
    // router
    {"router.serve_p50_ms", "ms"},
    {"router.serve_p99_ms", "ms"},
    {"router.wire_serialize_p50_ms", "ms"},
    {"router.fanout_p50_ms", "ms"},
    {"router.fanout_p99_ms", "ms"},
    {"router.unattributed_p50_ms", "ms"},
    {"router.retry_rounds", "count"},
    {"router.hedges", "count"},
    {"router.timeouts", "count"},
    {"router.reconnects", "count"},
    {"router.publish_p50_ms", "ms"},
    {"router.publish_p99_ms", "ms"},
    {"publish_p50_ms", "ms"},
    {"publish_p99_ms", "ms"},
    // serve
    {"serve.batch_assembly_p50_ms", "ms"},
    {"serve.mean_batch_rows", "rows"},
    {"serve.rejected", "count"},
    {"serve.deadline_shed", "count"},
    {"serve.overhead_p50_ms", "ms"},
    // core
    {"core.encode_p50_ms", "ms"},
    {"core.forward_p50_ms", "ms"},
    {"core.rank_p50_ms", "ms"},
    {"core.query_s", "s"},
    {"core.query_rows", "count"},
    // nn
    {"nn.fp32_forward_p50_ms", "ms"},
    {"nn.int8_over_fp32_forward", "ratio"},
    {"nn.int8_top1_agreement", "frac"},
    // store
    {"store.put_next_p50_ms", "ms"},
    {"store.put_next_p99_ms", "ms"},
    // attack
    {"attack.enumerate_ms_per_window", "ms"},
    {"attack.score_ms_per_window", "ms"},
    {"attack.candidates_per_window", "count"},
    {"attack.query_share", "frac"},
    {"attack.top3_hits", "count"},
    // models
    {"models.general_train_s", "s"},
    {"models.personalize_s_per_user", "s"},
    // obs
    {"obs.tracing_overhead_frac", "frac"},
    // Diagnostics: printed and written, never bounded (README explains).
    {"machine_slowdown", "ratio"},
    {"latency_raw_ms", "ms"},
    {"throughput_raw_per_s", "1/s"},
    {"latency_p99_ms", "ms"},
    {"latency_p99_all_ms", "ms"},
    {"latency_p999_all_ms", "ms"},
    {"latency_samples", "count"},
    {"latency_windows", "count"},
};

bool in_catalog(const std::string& name) {
  return std::any_of(std::begin(kCatalog), std::end(kCatalog),
                     [&](const MetricDef& def) { return name == def.name; });
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Every digit of a double, as JSON.
std::string json_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

int setup_reps(const Options& options) { return options.smoke ? 1 : 9; }

PhaseSummary summarize_by_second(const Options& options,
                                 const std::vector<Timed>& ops,
                                 double units_per_op) {
  constexpr std::size_t kMinOps = 20;
  const auto windows = static_cast<std::size_t>(std::ceil(options.seconds));
  std::vector<std::vector<double>> by_window(windows);
  for (const Timed& op : ops) {
    const auto w = static_cast<std::size_t>(std::max(0.0, op.at_s));
    if (w < windows) by_window[w].push_back(op.ms);
  }
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  for (std::size_t w = 0; w < windows; ++w) {
    // Plain time inside this window: all of it untraced, half traced.
    double plain_s = 0.0;
    const double end = std::min(static_cast<double>(w + 1), options.seconds);
    for (double t = static_cast<double>(w); t < end; t += kSliceSeconds) {
      if (!traced_slice(options, t)) {
        plain_s += std::min(kSliceSeconds, end - t);
      }
    }
    if (by_window[w].size() < kMinOps || plain_s <= 0.0) continue;
    p50.push_back(quantile(by_window[w], 0.50));
    p99.push_back(quantile(by_window[w], 0.99));
    rate.push_back(units_per_op * static_cast<double>(by_window[w].size()) /
                   plain_s);
  }
  return {.latency_ms = median(p50),
          .p99_ms = median(p99),
          .per_s = median(rate),
          .windows = p50.size()};
}

double reference_ms(std::size_t threads) {
  // A float accumulation chain cannot be reordered without -ffast-math, so
  // the loop runs at the multiply-add latency: pure core speed, with the
  // 16 KB operands resident in L1.
  constexpr std::size_t kLength = 4096;
  constexpr int kRounds = 400;
  const auto work = [] {
    const std::vector<float> a(kLength, 1.0001f);
    const std::vector<float> b(kLength, 0.9999f);
    float acc = 0.0f;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kLength; ++i) {
        acc += a[i] * b[(i + static_cast<std::size_t>(round)) % kLength];
      }
    }
    return acc;
  };
  std::vector<float> sums(std::max<std::size_t>(threads, 1), 0.0f);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < sums.size(); ++t) {
      helpers.emplace_back([&sums, &work, t] { sums[t] = work(); });
    }
    sums[0] = work();
  }
  const double ms = ms_between(start, Clock::now());
  volatile float sink = 0.0f;
  for (const float sum : sums) sink = sink + sum;
  return ms;
}

double MachineSpeed::slowdown() const {
  // reference_ms between operations on a quiet 4-vCPU Intel Xeon VM: one
  // thread, and one more thread than cores. Only the scale of the reported
  // numbers depends on them; ratios between runs do not.
  constexpr double kNominalSingleMs = 1.2;
  constexpr double kNominalWideMs = 1.45;
  if (samples_ms_.empty()) return 1.0;
  return median(samples_ms_) /
         (threads_ <= 1 ? kNominalSingleMs : kNominalWideMs);
}

double overhead_frac(const std::vector<double>& plain_ms,
                     const std::vector<double>& traced_ms) {
  const double plain = median(plain_ms);
  return plain == 0.0 ? 0.0 : (median(traced_ms) - plain) / plain;
}

void report_phase(Report& report, const PhaseSummary& summary,
                  const MachineSpeed& speed,
                  const std::vector<double>& all_ms) {
  const double slowdown = speed.slowdown();
  report.set("latency_ms", summary.latency_ms / slowdown);
  report.set("throughput_per_s", summary.per_s * slowdown);
  report.set("machine_slowdown", slowdown);
  report.set("latency_raw_ms", summary.latency_ms);
  report.set("throughput_raw_per_s", summary.per_s);
  report.set("latency_p99_ms", summary.p99_ms);
  report.set("latency_windows", static_cast<double>(summary.windows));
  report.set("latency_samples", static_cast<double>(all_ms.size()));
  report.set("latency_p99_all_ms", quantile(all_ms, 0.99));
  report.set("latency_p999_all_ms", quantile(all_ms, 0.999));
}

double histogram_percentile(const obs::RegistryState& state,
                            const std::string& name, double percentile) {
  for (const auto& [key, hist] : state.histograms) {
    if (key == name) return obs::Histogram::percentile_of(hist, percentile);
  }
  return 0.0;
}

double counter_value(const obs::RegistryState& state,
                     const std::string& name) {
  for (const auto& [key, value] : state.counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

mobility::Window random_window(Rng& rng, std::size_t num_locations) {
  mobility::Window window;
  for (auto& step : window.steps) {
    step.entry_bin = static_cast<std::uint8_t>(rng.below(mobility::kEntryBins));
    step.duration_bin =
        static_cast<std::uint8_t>(rng.below(mobility::kDurationBins));
    step.day_of_week =
        static_cast<std::uint8_t>(rng.below(mobility::kDaysPerWeek));
    step.location = static_cast<std::uint16_t>(rng.below(num_locations));
  }
  window.next_location = static_cast<std::uint16_t>(rng.below(num_locations));
  return window;
}

nn::SequenceClassifier user_model(std::uint64_t seed, std::uint32_t user,
                                  std::uint32_t version,
                                  const mobility::EncodingSpec& spec,
                                  std::size_t hidden_dim) {
  Rng rng(split_mix64(seed ^ split_mix64((std::uint64_t{user} << 32) |
                                         version)));
  return nn::make_one_layer_lstm(spec.input_dim(), hidden_dim,
                                 spec.num_locations, /*dropout_rate=*/0.0,
                                 rng);
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t parent)
    : log_(log), name_(name), parent_(parent) {
  if (!log_.enabled_) return;
  {
    const MutexLock lock(log_.mutex_);
    id_ = log_.next_id_++;
  }
  start_ = Clock::now();
}

SpanLog::Scope::~Scope() {
  if (!log_.enabled_) return;
  const Clock::time_point end = Clock::now();
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - log_.origin_).count();
  };
  const MutexLock lock(log_.mutex_);
  if (log_.records_.size() >= kMaxSpans) {
    ++log_.dropped_;
    return;
  }
  try {
    log_.records_.push_back({id_, parent_, name_, us(start_), us(end)});
  } catch (const std::bad_alloc&) {
    ++log_.dropped_;  // a destructor must not throw
  }
}

void SpanLog::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  const MutexLock lock(mutex_);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"name\": " << json_string(r.name)
        << ", \"start_us\": " << json_number(r.start_us)
        << ", \"end_us\": " << json_number(r.end_us) << "}";
  }
  out << "\n], \"dropped\": " << dropped_ << "}\n";
}

void Report::set(const std::string& name, double value) {
  if (!in_catalog(name)) {
    throw std::invalid_argument("metric not in the catalog: " + name);
  }
  if (!std::isfinite(value)) {
    check("finite " + name, false, "value is not a finite number");
    value = 0.0;
  }
  values_[name] = value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::add_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::correct() const {
  return failed_ == 0 && attempted_ > 0 &&
         std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print(std::ostream& os) const {
  Table table({"metric", "value", "unit"});
  for (const MetricDef& def : kCatalog) {
    const auto it = values_.find(def.name);
    table.add_row({def.name,
                   it == values_.end() ? "-" : Table::num(it->second, 4),
                   def.unit});
  }
  table.add_row({"ops_attempted", std::to_string(attempted_), "count"});
  table.add_row({"ops_failed", std::to_string(failed_), "count"});
  os << table;
  for (const Check& c : checks_) {
    os << (c.ok ? "  ok    " : "  FAIL  ") << c.name;
    if (!c.detail.empty()) os << " (" << c.detail << ")";
    os << "\n";
  }
  os << "correct: " << (correct() ? "yes" : "NO") << "\n";
}

void Report::write(const Options& options,
                   const std::string& started_at) const {
  std::filesystem::create_directories(options.out);
  const auto path = options.out / (options.workload + ".json");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());

  out << "{\n\"fingerprint\": {"
      << "\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"traced\": " << (options.traced ? "true" : "false")
      << ", \"smoke\": " << (options.smoke ? "true" : "false")
      << ", \"git_sha\": " << json_string(PELICAN_E2E_GIT_SHA)
      << ", \"build_type\": " << json_string(PELICAN_E2E_BUILD_TYPE)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"started_at\": " << json_string(started_at) << "},\n";
  out << "\"correct\": " << (correct() ? "true" : "false")
      << ",\n\"ops_attempted\": " << attempted_
      << ",\n\"ops_failed\": " << failed_ << ",\n\"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": "
        << json_string(checks_[i].name)
        << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
        << ", \"detail\": " << json_string(checks_[i].detail) << "}";
  }
  out << "],\n\"headers\": [\"metric\", \"value\", \"unit\"],\n\"rows\": [";
  bool first = true;
  const auto row = [&](const std::string& name, double value,
                       const std::string& unit) {
    out << (first ? "\n" : ",\n") << "[" << json_string(name) << ", "
        << json_number(value) << ", " << json_string(unit) << "]";
    first = false;
  };
  for (const MetricDef& def : kCatalog) {
    const auto it = values_.find(def.name);
    row(def.name, it == values_.end() ? 0.0 : it->second, def.unit);
  }
  row("ops_attempted", static_cast<double>(attempted_), "count");
  row("ops_failed", static_cast<double>(failed_), "count");
  out << "\n]\n}\n";
  if (!out) throw std::runtime_error("short write to " + path.string());
}

}  // namespace pelican::e2e
