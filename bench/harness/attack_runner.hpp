// Shared attack-evaluation helpers for the experiment binaries: run an
// inversion configuration against every personalized user in a pipeline
// (optionally behind a privacy layer) and aggregate accuracies the way the
// paper reports them (mean over users).
#pragma once

#include <algorithm>
#include <iostream>
#include <vector>

#include "attack/gradient_attack.hpp"
#include "attack/inversion.hpp"
#include "core/pelican.hpp"
#include "harness/pipeline.hpp"

namespace pelican::bench {

struct AttackSweep {
  std::vector<std::size_t> ks;
  std::vector<attack::InversionResult> per_user;
  std::vector<double> mean_topk;  ///< Aggregate accuracy (%) per k.
  double total_seconds = 0.0;
  std::size_t total_queries = 0;

  [[nodiscard]] double mean_at(std::size_t k) const {
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (ks[i] == k) return mean_topk[i];
    }
    throw std::invalid_argument("AttackSweep::mean_at: k not evaluated");
  }
};

/// Windows attacked per user: the scale's attack_windows_per_user, capped
/// by the caller's max_windows where that is set (nonzero).
inline std::size_t windows_per_user(const Pipeline& pipeline,
                                    std::size_t max_windows) {
  const std::size_t scale_windows = pipeline.scale().attack_windows_per_user;
  return max_windows == 0 ? scale_windows
                          : std::min(max_windows, scale_windows);
}

/// Runs the enumeration-based attack against every user. `temperature` = 1
/// attacks the raw deployment; smaller values attack a privacy-protected
/// deployment. Prior and locations-of-interest are derived per user.
inline AttackSweep run_attack_over_users(Pipeline& pipeline,
                                         const attack::InversionConfig& config,
                                         attack::PriorKind prior_kind,
                                         double temperature = 1.0) {
  AttackSweep sweep;
  sweep.ks = config.ks;
  sweep.mean_topk.assign(config.ks.size(), 0.0);

  for (auto& user : pipeline.users()) {
    core::DeployedModel deployment(user.model.clone(), pipeline.spec(),
                                   core::PrivacyLayer(temperature),
                                   core::DeploymentSite::kOnDevice);
    const auto prior = attack::make_prior(prior_kind, user.train_windows,
                                          deployment, user.test_windows);
    attack::InversionConfig user_config = config;
    user_config.max_windows = windows_per_user(pipeline, config.max_windows);
    const auto result =
        attack::run_inversion(deployment, user.train_windows,
                              user.test_windows, prior, user_config);
    sweep.total_seconds += result.attack_seconds;
    sweep.total_queries += result.model_queries;
    for (std::size_t i = 0; i < sweep.ks.size(); ++i) {
      sweep.mean_topk[i] += result.topk_accuracy[i];
    }
    sweep.per_user.push_back(result);
  }

  const double n = static_cast<double>(pipeline.users().size());
  for (double& acc : sweep.mean_topk) acc = 100.0 * acc / n;
  return sweep;
}

/// Same aggregation for the gradient-descent attack (white-box).
inline AttackSweep run_gradient_over_users(
    Pipeline& pipeline, const attack::InversionConfig& config,
    attack::PriorKind prior_kind,
    const attack::GradientAttackConfig& gradient_config) {
  AttackSweep sweep;
  sweep.ks = config.ks;
  sweep.mean_topk.assign(config.ks.size(), 0.0);

  for (auto& user : pipeline.users()) {
    core::DeployedModel deployment(user.model.clone(), pipeline.spec(),
                                   core::PrivacyLayer(1.0),
                                   core::DeploymentSite::kOnDevice);
    const auto prior = attack::make_prior(prior_kind, user.train_windows,
                                          deployment, user.test_windows);
    attack::InversionConfig user_config = config;
    user_config.max_windows = windows_per_user(pipeline, config.max_windows);
    const auto result = attack::run_gradient_inversion(
        user.model, pipeline.spec(), user.train_windows, prior, user_config,
        gradient_config);
    sweep.total_seconds += result.attack_seconds;
    sweep.total_queries += result.model_queries;
    for (std::size_t i = 0; i < sweep.ks.size(); ++i) {
      sweep.mean_topk[i] += result.topk_accuracy[i];
    }
    sweep.per_user.push_back(result);
  }

  const double n = static_cast<double>(pipeline.users().size());
  for (double& acc : sweep.mean_topk) acc = 100.0 * acc / n;
  return sweep;
}

}  // namespace pelican::bench
