#include "attack/inversion.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "models/window_dataset.hpp"

namespace pelican::attack {

double InversionResult::at_k(std::size_t k) const {
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (ks[i] == k) return topk_accuracy[i];
  }
  throw std::invalid_argument("InversionResult::at_k: k not evaluated");
}

std::vector<double> score_candidates(BlackBoxModel& model,
                                     std::span<const Candidate> candidates,
                                     std::uint16_t observed_next,
                                     std::span<const double> prior,
                                     std::size_t query_batch) {
  if (query_batch == 0) {
    throw std::invalid_argument("score_candidates: query_batch must be > 0");
  }
  const mobility::EncodingSpec& spec = model.spec();
  std::vector<double> scores(model.num_classes(), 0.0);

  for (std::size_t start = 0; start < candidates.size();
       start += query_batch) {
    const std::size_t count =
        std::min(query_batch, candidates.size() - start);
    // Candidates are one-hot by construction; query through the sparse
    // fast path (bit-identical confidences, nnz-row input products). Rows
    // follow enumeration order, which keeps candidates that share their
    // known step adjacent: nn::Lstm computes such a run's shared leading
    // step once (nn/lstm.hpp), so reordering them costs time.
    nn::SparseSequence x(mobility::kWindowSteps,
                         nn::SparseRows(count, spec.input_dim()));
    for (nn::SparseRows& step : x) step.reserve(4 * count);
    for (std::size_t i = 0; i < count; ++i) {
      models::encode_steps(candidates[start + i].steps, spec, x, i);
    }
    const nn::Matrix confidences = model.query(x);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint16_t guess = candidates[start + i].guess;
      const double score =
          static_cast<double>(confidences(i, observed_next)) * prior[guess];
      scores[guess] = std::max(scores[guess], score);
    }
  }
  return scores;
}

std::vector<std::unique_ptr<BlackBoxModel>> make_scoring_replicas(
    BlackBoxModel& model, std::size_t count) {
  std::vector<std::unique_ptr<BlackBoxModel>> replicas;
  replicas.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto replica = model.replicate();
    if (!replica) return {};
    replicas.push_back(std::move(replica));
  }
  return replicas;
}

std::vector<double> score_candidates_parallel(
    BlackBoxModel& model, std::span<const Candidate> candidates,
    std::uint16_t observed_next, std::span<const double> prior,
    std::size_t query_batch,
    std::span<const std::unique_ptr<BlackBoxModel>> replicas) {
  if (query_batch == 0) {
    throw std::invalid_argument(
        "score_candidates_parallel: query_batch must be > 0");
  }
  // Workers pull query_batch-row batches from one counter, so a worker on
  // a busy core takes fewer batches instead of holding up the call. Worker
  // w queries through handle w whichever pool thread runs it, and max-merges
  // each batch's scores into its own partial; one worker is the serial path.
  const std::size_t batches =
      (candidates.size() + query_batch - 1) / query_batch;
  const std::size_t workers = std::min(replicas.size() + 1, batches);
  if (workers <= 1) {
    return score_candidates(model, candidates, observed_next, prior,
                            query_batch);
  }
  std::vector<BlackBoxModel*> models;
  models.reserve(workers);
  models.push_back(&model);
  for (std::size_t i = 0; i + 1 < workers; ++i) {
    models.push_back(replicas[i].get());
  }

  std::vector<std::vector<double>> partial(
      workers, std::vector<double>(model.num_classes(), 0.0));
  std::atomic<std::size_t> next_batch{0};
  parallel_for(workers, [&](std::size_t w) {
    for (std::size_t b = next_batch++; b < batches; b = next_batch++) {
      const std::size_t start = b * query_batch;
      const std::vector<double> scores = score_candidates(
          *models[w],
          candidates.subspan(start,
                             std::min(query_batch, candidates.size() - start)),
          observed_next, prior, query_batch);
      for (std::size_t l = 0; l < scores.size(); ++l) {
        partial[w][l] = std::max(partial[w][l], scores[l]);
      }
    }
  });

  // Deterministic merge: per-location max in ascending worker order. Max is
  // order-independent over these scores anyway (ties pick the same value),
  // so any worker count yields the bits the serial loop yields.
  std::vector<double> scores = std::move(partial[0]);
  for (std::size_t w = 1; w < workers; ++w) {
    for (std::size_t l = 0; l < scores.size(); ++l) {
      scores[l] = std::max(scores[l], partial[w][l]);
    }
  }
  return scores;
}

InversionResult run_inversion(
    BlackBoxModel& model, std::span<const mobility::Window> target_windows,
    std::span<const mobility::Window> observation_windows,
    std::span<const double> prior, const InversionConfig& config) {
  if (prior.size() != model.num_classes()) {
    throw std::invalid_argument("run_inversion: prior size mismatch");
  }
  if (config.ks.empty()) {
    throw std::invalid_argument("run_inversion: no ks requested");
  }

  // Guess space: full domain for brute force, locations-of-interest
  // otherwise (the paper's 1%-confidence search-space reduction).
  std::vector<std::uint16_t> guesses;
  if (config.method == AttackMethod::kBruteForce) {
    guesses.resize(model.num_classes());
    for (std::size_t i = 0; i < guesses.size(); ++i) {
      guesses[i] = static_cast<std::uint16_t>(i);
    }
  } else {
    guesses =
        locations_of_interest(model, observation_windows,
                              config.loi_threshold);
    if (guesses.empty()) {
      guesses.push_back(0);  // degenerate model: keep the attack well-defined
    }
  }

  const std::size_t step = target_step(config.adversary);
  const std::size_t limit =
      config.max_windows == 0
          ? target_windows.size()
          : std::min(config.max_windows, target_windows.size());

  InversionResult result;
  result.ks = config.ks;
  result.topk_accuracy.assign(config.ks.size(), 0.0);

  // One scoring handle per pool worker (BlackBoxModel::replicate), built
  // once and used for every window. Candidate scoring, the attack's
  // dominant cost, then spans the pool whenever a window's candidate set
  // is big enough. The handles query the model itself, so the audit trail
  // is identical to serial scoring.
  std::vector<std::unique_ptr<BlackBoxModel>> replicas;
  if (config.parallel_scoring) {
    replicas = make_scoring_replicas(model, ThreadPool::global().size());
  }

  Stopwatch watch;
  for (std::size_t w = 0; w < limit; ++w) {
    const mobility::Window& window = target_windows[w];
    const auto candidates = enumerate_candidates(
        config.method, config.adversary, window, guesses, prior);
    const auto scores = score_candidates_parallel(
        model, candidates, window.next_location, prior, config.query_batch,
        replicas);
    result.model_queries += candidates.size();

    const std::uint16_t truth = window.steps[step].location;
    for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
      // Rank locations by score; count a hit when the true historical
      // location is within the top-k. Scores of never-guessed locations
      // are 0 and lose ties to guessed ones only via the deterministic
      // index tie-break, matching nn::topk semantics.
      const auto top = nn::topk_indices(std::span<const double>(scores),
                                        config.ks[ki]);
      if (std::find(top.begin(), top.end(),
                    static_cast<std::size_t>(truth)) != top.end()) {
        result.topk_accuracy[ki] += 1.0;
      }
    }
    ++result.windows_attacked;
  }
  result.attack_seconds = watch.seconds();

  if (result.windows_attacked > 0) {
    for (double& acc : result.topk_accuracy) {
      acc /= static_cast<double>(result.windows_attacked);
    }
  }
  return result;
}

}  // namespace pelican::attack
