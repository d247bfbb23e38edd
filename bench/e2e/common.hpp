// Shared pieces of the end-to-end benchmark: options, the metric catalog,
// the per-workload report, bench-side spans, and small measurement helpers.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "mobility/dataset.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"

namespace pelican::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase (warm-up and set-up come on top).
  double seconds = 15.0;
  /// Per-layer run: bench-side spans, layer instrumentation switched on in
  /// alternate slices of the measured phase, and the trace file.
  bool traced = false;
  /// About one second per workload and a single set-up (the ctest).
  bool smoke = false;
  /// Results, traces and the workloads' scratch files (fleet sockets and
  /// stores, model caches) all live here.
  std::filesystem::path out;
};

/// How often set-up is repeated; its median is `setup_s`.
[[nodiscard]] int setup_reps(const Options& options);

/// Traced runs alternate plain and instrumented slices of this length, so
/// the two halves see the same machine state and their difference is the
/// tracing overhead.
inline constexpr double kSliceSeconds = 0.5;
[[nodiscard]] inline bool traced_slice(const Options& options,
                                       double seconds_into_phase) {
  return options.traced &&
         static_cast<long>(seconds_into_phase / kSliceSeconds) % 2 == 1;
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Percentile (0..100) of a named histogram in a registry snapshot, and a
/// named counter; 0 when the snapshot does not hold the name.
[[nodiscard]] double histogram_percentile(const obs::RegistryState& state,
                                          const std::string& name,
                                          double percentile);
[[nodiscard]] double counter_value(const obs::RegistryState& state,
                                   const std::string& name);

/// One timed operation of the measured phase: when it completed, in seconds
/// into the phase, and how long it took.
struct Timed {
  double at_s = 0.0;
  double ms = 0.0;
};

/// The end-to-end latency and throughput of a run, plus its tail.
struct PhaseSummary {
  double latency_ms = 0.0;
  double p99_ms = 0.0;
  double per_s = 0.0;  ///< `units_per_op` x operations per second
  std::size_t windows = 0;
};

/// Each statistic is computed per one-second window of the measured phase
/// (plain slices only), then reduced to its median across windows, so
/// latency_ms is the median second's median latency. On a shared VM,
/// neighbours steal CPU in bursts of about a second, and a median over ten
/// or more windows is not moved by a few bad ones. Windows with fewer than
/// 20 operations are skipped.
[[nodiscard]] PhaseSummary summarize_by_second(const Options& options,
                                               const std::vector<Timed>& ops,
                                               double units_per_op);

/// Machine-speed reference: `threads` threads (the caller and threads - 1
/// more) each run the same fixed chain of multiply-adds over a 16 KB array;
/// returns the wall time until all have finished, in ms. It calls nothing
/// in the repo, so no change to the program moves it. The machine does: CPU
/// time taken by neighbours on a shared host, a busy hyperthread sibling, a
/// lower clock.
[[nodiscard]] double reference_ms(std::size_t threads);

/// How much slower than nominal the machine ran during a run, from
/// reference_ms samples taken between the operations of a closed loop, with
/// the workload's own parallel width (1, or the attack's scoring workers).
/// The end-to-end latency is divided by it and the throughput multiplied:
/// on a shared VM the same commit's raw timings drift by a quarter or more
/// over minutes, and the reference drifts with them.
class MachineSpeed {
 public:
  explicit MachineSpeed(std::size_t threads) : threads_(threads) {}

  void sample() { samples_ms_.push_back(reference_ms(threads_)); }

  /// Median sample over the nominal reference time for this width; 1 when
  /// nothing was sampled (the routed workloads).
  [[nodiscard]] double slowdown() const;

 private:
  std::size_t threads_;
  std::vector<double> samples_ms_;
};

/// (traced p50 - plain p50) / plain p50 over the two kinds of slices.
[[nodiscard]] double overhead_frac(const std::vector<double>& plain_ms,
                                   const std::vector<double>& traced_ms);

/// Sample quantile (q in [0, 1]) with linear interpolation; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// VmHWM of a process in MB (`pid` 0 = this process).
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// One random window over `num_locations` locations.
[[nodiscard]] mobility::Window random_window(Rng& rng,
                                             std::size_t num_locations);

/// The seeded weights of one user's model version: the same (seed, user,
/// version) always gives the same model, so references are rebuilt rather
/// than kept.
[[nodiscard]] nn::SequenceClassifier user_model(std::uint64_t seed,
                                                std::uint32_t user,
                                                std::uint32_t version,
                                                const mobility::EncodingSpec& spec,
                                                std::size_t hidden_dim);

/// Bench-side spans around each call into a layer: name, start, end and
/// the span that caused it. Kept in memory, written at exit. Disabled logs
/// read no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    SpanLog& log_;
    const char* name_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    Clock::time_point start_;
  };

  /// Writes {"spans": [...], "dropped": n} with times in microseconds
  /// since the log was created.
  void write(const std::filesystem::path& path) const;

 private:
  struct Record {
    std::uint64_t id;
    std::uint64_t parent;
    const char* name;
    double start_us;
    double end_us;
  };
  static constexpr std::size_t kMaxSpans = 200000;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable Mutex mutex_;
  std::uint64_t next_id_ PELICAN_GUARDED_BY(mutex_) = 1;
  std::vector<Record> records_ PELICAN_GUARDED_BY(mutex_);
  std::uint64_t dropped_ PELICAN_GUARDED_BY(mutex_) = 0;
};

/// What one workload run produced: metrics from the catalog, correctness
/// checks, and the operations attempted and failed.
class Report {
 public:
  /// Sets a catalog metric (throws std::invalid_argument for a name the
  /// catalog does not hold).
  void set(const std::string& name, double value);
  /// Records a correctness check; a failed one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void add_ops(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const;

  /// Prints every metric by name with its unit, then the checks.
  void print(std::ostream& os) const;
  /// Writes <out>/<workload>.json: a fingerprint, the checks, and the
  /// metrics as Table-JSON rows (name, value, unit) that tools/bench_diff.py
  /// diffs unchanged. Metrics a workload does not exercise read 0.
  void write(const Options& options, const std::string& started_at) const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, double> values_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The end-to-end latency and throughput from `summary` at nominal machine
/// speed, the raw values and the slowdown as diagnostics, and the whole-run
/// tail over every plain sample in `all_ms`.
void report_phase(Report& report, const PhaseSummary& summary,
                  const MachineSpeed& speed,
                  const std::vector<double>& all_ms);

/// Workload entry points (one per translation unit).
void run_routed(const Options& options, bool with_publish, Report& report,
                SpanLog& spans);
void run_engine(const Options& options, Report& report, SpanLog& spans);
void run_attack(const Options& options, Report& report, SpanLog& spans);

}  // namespace pelican::e2e
