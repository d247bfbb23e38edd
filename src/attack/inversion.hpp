// Model-inversion attack driver (Section III-B2, evaluated in Section IV).
//
// For each attacked window the adversary:
//  1. builds a candidate set (enumeration.hpp) for the unknown step(s),
//  2. queries the black-box model with every candidate input,
//  3. scores each location guess by
//       max over candidates with that guess of  P_M(l_t | candidate) * p[guess]
//     (the classic confidence-times-prior inversion score), and
//  4. ranks guesses; the attack "hits at k" when the true historical
//     location is among the top-k guesses.
// Aggregate attack accuracy = fraction of attacked windows hit, the metric
// reported in every attack figure of the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "attack/blackbox.hpp"
#include "attack/enumeration.hpp"
#include "attack/prior.hpp"
#include "attack/threat.hpp"
#include "mobility/dataset.hpp"

namespace pelican::attack {

struct InversionConfig {
  Adversary adversary = Adversary::kA1;
  AttackMethod method = AttackMethod::kTimeBased;
  /// Locations-of-interest confidence cutoff (1% in the paper). Applied to
  /// the time-based method only; brute force enumerates the full domain.
  double loi_threshold = 0.01;
  /// Attack at most this many windows (0 = all provided).
  std::size_t max_windows = 0;
  /// Evaluation ks, ascending.
  std::vector<std::size_t> ks = {1, 3, 5, 7};
  /// Candidates per model query batch (memory/throughput trade-off).
  std::size_t query_batch = 1024;
  /// Score candidates across ThreadPool::global(), one scoring handle
  /// (BlackBoxModel::replicate) per worker, all querying the one model;
  /// the workers pull query batches from one counter
  /// (score_candidates_parallel). Falls back to serial scoring when the
  /// model cannot be queried concurrently or the pool has no workers.
  /// Scores are bit-identical to the serial path for any worker count:
  /// per-candidate confidences are batch-composition-invariant (nn kernel
  /// contract) and the per-location max-merge is order-independent.
  bool parallel_scoring = true;
};

struct InversionResult {
  std::vector<std::size_t> ks;
  std::vector<double> topk_accuracy;  ///< Parallel to ks, in [0, 1].
  std::size_t windows_attacked = 0;
  std::size_t model_queries = 0;      ///< Total candidate inputs scored.
  double attack_seconds = 0.0;        ///< Wall time of the attack loop.

  /// Accuracy at a requested k (must be one of ks).
  [[nodiscard]] double at_k(std::size_t k) const;
};

/// Runs the inversion attack against `model`.
///  - `target_windows`: historical windows to reconstruct (the user's
///    private training data, which the adversary does NOT see; it is used
///    only to build the per-window known features and to score success).
///  - `observation_windows`: inputs the service provider legitimately
///    observed; used for the locations-of-interest filter.
///  - `prior`: marginal prior p over locations (see make_prior).
[[nodiscard]] InversionResult run_inversion(
    BlackBoxModel& model, std::span<const mobility::Window> target_windows,
    std::span<const mobility::Window> observation_windows,
    std::span<const double> prior, const InversionConfig& config);

/// Scores one window's candidate set against the model; returns per-location
/// scores (index = location id, value = best confidence x prior). Exposed
/// for tests and for the gradient attack's shared ranking logic. This is
/// the serial reference for score_candidates_parallel.
[[nodiscard]] std::vector<double> score_candidates(
    BlackBoxModel& model, std::span<const Candidate> candidates,
    std::uint16_t observed_next, std::span<const double> prior,
    std::size_t query_batch);

/// Scores the candidate set across ThreadPool::global(), one worker per
/// handle (`model` itself plus each handle in `replicas`). The workers pull
/// `query_batch`-row batches, the serial path's own batches, from one
/// shared counter, so a worker on a busy core takes fewer batches instead
/// of holding up the call; each row is queried once. Each worker max-merges
/// its batches' per-location scores, and the workers' scores merge in
/// worker order. Bit-identical to score_candidates for every handle count
/// and any split of the batches; with no handles it IS the serial path.
[[nodiscard]] std::vector<double> score_candidates_parallel(
    BlackBoxModel& model, std::span<const Candidate> candidates,
    std::uint16_t observed_next, std::span<const double> prior,
    std::size_t query_batch,
    std::span<const std::unique_ptr<BlackBoxModel>> replicas);

/// Builds `count` scoring handles of `model` (BlackBoxModel::replicate).
/// Returns an empty vector when the model cannot be queried concurrently.
[[nodiscard]] std::vector<std::unique_ptr<BlackBoxModel>>
make_scoring_replicas(BlackBoxModel& model, std::size_t count);

}  // namespace pelican::attack
