// Declarative SLOs evaluated as multi-window burn rates over the
// time-series store.
//
// An SloSpec names a series (typically one the FleetSampler derives, e.g.
// `stage_router_fanout_ms_p99`, or `requests_shed_total_rate` from the
// serving counters of serve/stats.hpp that every engine records), a target
// (a sample is GOOD iff value <= target), and an error budget (the
// fraction of samples allowed to be bad). The burn rate of a window is
//
//   burn = (bad samples / samples in window) / budget_fraction
//
// i.e. how many times faster than "allowed" the budget is being consumed:
// 1.0 = exactly on budget, 10.0 = a 1% budget burning at 10%/window.
//
// Multi-window semantics are the standard SRE refinement: a breach is
// declared only when EVERY configured window burns at or above the
// threshold — the short window confirms the problem is happening NOW (and
// clears quickly once it stops, giving fast recovery detection), the long
// window confirms enough budget was spent to matter (one blip cannot
// page). Transitions — not levels — are surfaced: each breach/recovery
// edge bumps `slo_breaches_total`/`slo_recoveries_total` and lands a
// kSloBreach/kSloRecovered event in the journal, so the flight recorder
// tells the story ("breached at T, recovered at T+12s") rather than a
// thousand identical "still bad" lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace pelican::obs {

/// One declarative objective over a stored series.
struct SloSpec {
  std::string name;        ///< e.g. "predict-p99"
  std::string series;      ///< watched series, e.g. "stage_forward_ms_p99"
  double target = 0.0;     ///< sample is good iff value <= target
  double budget_fraction = 0.01;  ///< allowed bad-sample fraction, (0, 1]
  std::vector<double> windows_s = {10.0, 60.0};  ///< evaluation windows
  double burn_threshold = 1.0;  ///< breach iff every window burns >= this
};

/// Burn rate of one window at the latest evaluation.
struct SloWindowBurn {
  double window_s = 0.0;
  double burn = 0.0;
  std::size_t samples = 0;  ///< 0 = window empty; cannot contribute a breach
};

/// Evaluated status of one SLO.
struct SloStatus {
  std::string name;
  std::string series;
  double target = 0.0;
  bool breached = false;
  double worst_burn = 0.0;  ///< max over windows with samples
  std::vector<SloWindowBurn> windows;
};

/// Evaluates a set of SloSpecs against a TimeSeriesStore and tracks
/// breach/recovery transitions. evaluate() is typically wired as the
/// FleetSampler's on_sample hook so every tick re-judges the objectives;
/// status() serves the /slo exposition. Thread-safe.
class SloTracker {
 public:
  /// `metrics` (optional) receives slo_breaches_total /
  /// slo_recoveries_total; `events` (optional) receives transition events.
  /// Both must outlive the tracker.
  explicit SloTracker(const TimeSeriesStore& store,
                      Registry* metrics = nullptr,
                      EventJournal* events = nullptr);

  void add(SloSpec spec);
  [[nodiscard]] std::size_t size() const;

  /// Re-judge every objective against the store now; record transitions.
  /// Returns the fresh statuses (also retained for status()).
  std::vector<SloStatus> evaluate();
  /// Statuses from the last evaluate() (empty if never evaluated).
  [[nodiscard]] std::vector<SloStatus> status() const;

 private:
  const TimeSeriesStore& store_;
  Counter* breaches_ = nullptr;    ///< registry-owned, stable for its life
  Counter* recoveries_ = nullptr;
  EventJournal* events_ = nullptr;

  struct Tracked {
    SloSpec spec;
    bool breached = false;
  };
  mutable Mutex mutex_;
  std::vector<Tracked> slos_ PELICAN_GUARDED_BY(mutex_);
  std::vector<SloStatus> last_ PELICAN_GUARDED_BY(mutex_);
};

}  // namespace pelican::obs
