#include "attack/enumeration.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "nn/loss.hpp"

namespace pelican::attack {

namespace {

using mobility::kDaysPerWeek;
using mobility::kDurationBins;
using mobility::kEntryBins;
using mobility::kMinutesPerDay;
using mobility::kMinutesPerDurationBin;
using mobility::kMinutesPerEntryBin;
using mobility::StepFeatures;
using mobility::Window;

/// Brute force over one unknown step: every (entry, duration, location,
/// day) combination. Only defined for A1/A2 (A3 would need the cross
/// product of two full steps, which the paper only treats via the smarter
/// methods).
///
/// This is the dominant enumeration cost of the attack benches, and it is
/// embarrassingly parallel: each entry bin owns a fixed-size disjoint slice
/// of the output, so the slices are filled across ThreadPool::global() and
/// the merged ordering is identical to the serial loop by construction.
///
/// Every candidate copies the known step bit for bit, and candidates that
/// share it stay in adjacent rows. Keep both: nn::Lstm runs a step once for
/// a run of adjacent rows whose inputs so far are bit-equal (nn/lstm.hpp),
/// so for A1 every query computes x_{t-2} once instead of per row.
std::vector<Candidate> brute_force(Adversary adversary, const Window& window,
                                   std::span<const std::uint16_t> locations,
                                   bool parallel) {
  if (adversary == Adversary::kA3) {
    throw std::invalid_argument(
        "brute force is not defined for adversary A3 (two unknown steps)");
  }
  const std::size_t unknown = target_step(adversary);
  const std::size_t per_entry = static_cast<std::size_t>(kDurationBins) *
                                locations.size() * kDaysPerWeek;
  std::vector<Candidate> out(static_cast<std::size_t>(kEntryBins) *
                             per_entry);
  Candidate base;
  base.steps[0] = window.steps[0];
  base.steps[1] = window.steps[1];
  const auto fill_entry_slice = [&](std::size_t e) {
    Candidate* slot = out.data() + e * per_entry;
    for (int d = 0; d < kDurationBins; ++d) {
      for (const std::uint16_t loc : locations) {
        for (int w = 0; w < kDaysPerWeek; ++w) {
          Candidate c = base;
          c.steps[unknown] = StepFeatures{
              static_cast<std::uint8_t>(e), static_cast<std::uint8_t>(d),
              static_cast<std::uint8_t>(w), loc};
          c.guess = loc;
          *slot++ = c;
        }
      }
    }
  };
  // Only cross into the pool when it has workers: the type-erased callback
  // blocks inlining of the fill loop, which costs ~1.5x when the "parallel"
  // path would degenerate to one thread anyway.
  if (parallel && ThreadPool::global().size() > 0) {
    parallel_for(kEntryBins, fill_entry_slice);
  } else {
    for (std::size_t e = 0; e < kEntryBins; ++e) fill_entry_slice(e);
  }
  return out;
}

/// Time-based candidates for A1: x_{t-2} known, so e_{t-1} and the day are
/// derived; enumerate (duration, location) of x_{t-1}.
std::vector<Candidate> time_based_a1(const Window& window,
                                     std::span<const std::uint16_t> locations) {
  const StepFeatures& known = window.steps[0];
  const std::uint8_t entry = derive_next_entry_bin(known.entry_bin,
                                                   known.duration_bin);
  const std::uint8_t day =
      crosses_midnight(known.entry_bin, known.duration_bin)
          ? static_cast<std::uint8_t>((known.day_of_week + 1) % kDaysPerWeek)
          : known.day_of_week;
  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(kDurationBins) * locations.size());
  for (int d = 0; d < kDurationBins; ++d) {
    for (const std::uint16_t loc : locations) {
      Candidate c;
      c.steps[0] = known;
      c.steps[1] =
          StepFeatures{entry, static_cast<std::uint8_t>(d), day, loc};
      c.guess = loc;
      out.push_back(c);
    }
  }
  return out;
}

/// Time-based candidates for A2: x_{t-1} known; e_{t-2} = e_{t-1} - d_{t-2}
/// for each hypothesized duration; enumerate (duration, location) of
/// x_{t-2}.
std::vector<Candidate> time_based_a2(const Window& window,
                                     std::span<const std::uint16_t> locations) {
  const StepFeatures& known = window.steps[1];
  std::vector<Candidate> out;
  out.reserve(static_cast<std::size_t>(kDurationBins) * locations.size());
  for (int d = 0; d < kDurationBins; ++d) {
    const auto db = static_cast<std::uint8_t>(d);
    const std::uint8_t entry = derive_prev_entry_bin(known.entry_bin, db);
    // If subtracting the duration wrapped past midnight, the previous
    // session belongs to the previous day.
    const int bins_back =
        d * kMinutesPerDurationBin / kMinutesPerEntryBin;
    const bool wrapped = static_cast<int>(known.entry_bin) < bins_back;
    const std::uint8_t day =
        wrapped ? static_cast<std::uint8_t>((known.day_of_week +
                                             kDaysPerWeek - 1) %
                                            kDaysPerWeek)
                : known.day_of_week;
    for (const std::uint16_t loc : locations) {
      Candidate c;
      c.steps[0] = StepFeatures{entry, db, day, loc};
      c.steps[1] = known;
      c.guess = loc;
      out.push_back(c);
    }
  }
  return out;
}

/// A3 context templates for the fully-unknown older step: (entry bin,
/// duration bin, day) triples spanning a weekday morning/afternoon/evening
/// and a weekend slot.
struct ContextTemplate {
  std::uint8_t entry_bin;
  std::uint8_t duration_bin;
  std::uint8_t day;
};
constexpr ContextTemplate kA3Templates[] = {
    {18, 8, 2},   // 09:00 for ~85 min on a Wednesday (class)
    {26, 8, 2},   // 13:00 afternoon block
    {38, 17, 2},  // 19:00 long evening stay
    {20, 8, 6},   // 10:00 on a Sunday
};
constexpr std::uint8_t kA3DurationBins[] = {2, 8, 17};  // short/medium/long

/// Most probable `count` locations under the prior — plausible context
/// locations for the unknown older step.
std::vector<std::uint16_t> top_prior_locations(std::span<const double> prior,
                                               std::size_t count) {
  const auto top = nn::topk_indices(prior, count);
  std::vector<std::uint16_t> out;
  out.reserve(top.size());
  for (const std::size_t i : top) {
    if (prior[i] > 0.0) out.push_back(static_cast<std::uint16_t>(i));
  }
  if (out.empty()) out.push_back(0);
  return out;
}

/// Time-based candidates for A3: both steps unknown. The older step is
/// marginalized over context templates x plausible prior locations; the
/// recent step's entry/day derive from each template and its (duration,
/// location) guess is enumerated as in A1.
std::vector<Candidate> time_based_a3(std::span<const std::uint16_t> locations,
                                     std::span<const double> prior) {
  const auto context_locations = top_prior_locations(prior, 3);
  std::vector<Candidate> out;
  out.reserve(std::size(kA3Templates) * context_locations.size() *
              std::size(kA3DurationBins) * locations.size());
  for (const ContextTemplate& tmpl : kA3Templates) {
    for (const std::uint16_t context_loc : context_locations) {
      const StepFeatures older{tmpl.entry_bin, tmpl.duration_bin, tmpl.day,
                               context_loc};
      const std::uint8_t entry =
          derive_next_entry_bin(tmpl.entry_bin, tmpl.duration_bin);
      const std::uint8_t day =
          crosses_midnight(tmpl.entry_bin, tmpl.duration_bin)
              ? static_cast<std::uint8_t>((tmpl.day + 1) % kDaysPerWeek)
              : tmpl.day;
      for (const std::uint8_t d : kA3DurationBins) {
        for (const std::uint16_t loc : locations) {
          Candidate c;
          c.steps[0] = older;
          c.steps[1] = StepFeatures{entry, d, day, loc};
          c.guess = loc;
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

}  // namespace

std::uint8_t derive_next_entry_bin(std::uint8_t entry_bin,
                                   std::uint8_t duration_bin) {
  const int minutes = static_cast<int>(entry_bin) * kMinutesPerEntryBin +
                      static_cast<int>(duration_bin) * kMinutesPerDurationBin;
  return static_cast<std::uint8_t>((minutes / kMinutesPerEntryBin) %
                                   kEntryBins);
}

bool crosses_midnight(std::uint8_t entry_bin, std::uint8_t duration_bin) {
  const int minutes = static_cast<int>(entry_bin) * kMinutesPerEntryBin +
                      static_cast<int>(duration_bin) * kMinutesPerDurationBin;
  return minutes >= kMinutesPerDay;
}

std::uint8_t derive_prev_entry_bin(std::uint8_t entry_bin,
                                   std::uint8_t duration_bin) {
  // Exact inverse of derive_next_entry_bin under bin-start semantics:
  // derive_next(e, d) = e + floor(d_minutes / entry_bin_minutes), so step
  // back by that many whole entry bins (wrapping at midnight).
  const int bins_back = duration_bin * kMinutesPerDurationBin /
                        kMinutesPerEntryBin;
  int e = static_cast<int>(entry_bin) - bins_back;
  while (e < 0) e += kEntryBins;
  return static_cast<std::uint8_t>(e % kEntryBins);
}

std::vector<Candidate> enumerate_candidates(
    AttackMethod method, Adversary adversary, const Window& window,
    std::span<const std::uint16_t> guess_locations,
    std::span<const double> prior, bool parallel) {
  if (guess_locations.empty()) {
    throw std::invalid_argument("enumerate_candidates: no guess locations");
  }
  switch (method) {
    case AttackMethod::kBruteForce:
      return brute_force(adversary, window, guess_locations, parallel);
    case AttackMethod::kTimeBased:
      switch (adversary) {
        case Adversary::kA1:
          return time_based_a1(window, guess_locations);
        case Adversary::kA2:
          return time_based_a2(window, guess_locations);
        case Adversary::kA3:
          return time_based_a3(guess_locations, prior);
      }
      break;
    case AttackMethod::kGradientDescent:
      throw std::invalid_argument(
          "gradient descent does not enumerate; use run_gradient_inversion");
  }
  throw std::invalid_argument("enumerate_candidates: unknown method");
}

}  // namespace pelican::attack
