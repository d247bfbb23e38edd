// engine_b32_int8: closed loop, one client thread, in-process. Each
// BatchScheduler::serve call carries one user's 32 windows; the user is
// uniform over 64, each with a 150-location, hidden-128 model published as
// int8. Forward-bound batched serving without the router.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/privacy_layer.hpp"
#include "core/service.hpp"
#include "obs/timeseries.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "store/model_store.hpp"

namespace pelican::e2e {

namespace {

constexpr std::uint32_t kUsers = 64;
constexpr std::size_t kLocations = 150;
constexpr std::size_t kHidden = 128;
constexpr std::size_t kRows = 32;
constexpr std::size_t kTopK = 3;
constexpr double kTemperature = core::PrivacyLayer::kStrongTemperature;
constexpr const char* kScope = "personal";
constexpr std::size_t kBatchPool = 256;
/// One serve call in this many is replayed on a direct deployment.
constexpr std::uint64_t kCheckEvery = 32;
/// The machine's speed is sampled before one serve call in this many
/// (about every 0.4 s).
constexpr std::uint64_t kSpeedEvery = 256;

const mobility::EncodingSpec kSpec{mobility::SpatialLevel::kBuilding,
                                   kLocations};

struct Engine {
  std::shared_ptr<store::ModelStore> store;
  std::unique_ptr<serve::DeploymentRegistry> registry;
  std::unique_ptr<serve::BatchScheduler> scheduler;  ///< dies first
};

/// Set-up: each user's model quantized into the store, deployed, and then
/// replaced by its int8 artifact through the registry's publish path.
/// Generating the seeded fp32 weights is the workload's input, so it is left
/// out of `seconds`, which receives the time of everything else.
std::unique_ptr<Engine> bring_up(const Options& options, SpanLog& spans,
                                 double& seconds) {
  const SpanLog::Scope setup(spans, "setup");
  Clock::time_point resumed = Clock::now();
  seconds = 0.0;
  auto engine = std::make_unique<Engine>();
  engine->store = std::make_shared<store::ModelStore>();
  engine->registry = std::make_unique<serve::DeploymentRegistry>(16);
  engine->registry->attach_store(engine->store, kScope);
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    seconds += seconds_between(resumed, Clock::now());
    nn::SequenceClassifier model =
        user_model(options.seed, user, 1, kSpec, kHidden);
    resumed = Clock::now();
    {
      const SpanLog::Scope span(spans, "store.put", setup.id());
      engine->store->put({kScope, user, 1}, model.clone(),
                         store::PublishFormat::kInt8);
    }
    // The fp32 original is deployed as version 0, then replaced by the
    // int8 artifact.
    engine->registry->deploy(
        user, core::DeployedModel(std::move(model), kSpec,
                                  core::PrivacyLayer(kTemperature),
                                  core::DeploymentSite::kInCloud, 0));
    const SpanLog::Scope span(spans, "registry.publish", setup.id());
    engine->registry->publish(user, 1);
  }
  engine->scheduler = std::make_unique<serve::BatchScheduler>(
      *engine->registry,
      serve::SchedulerConfig{.max_batch = 32,
                             .max_delay = std::chrono::microseconds(2000)});
  engine->scheduler->set_instrumentation(false);
  seconds += seconds_between(resumed, Clock::now());
  return engine;
}

struct Sampled {
  std::uint32_t user = 0;
  std::size_t batch = 0;
  double ms = 0.0;  ///< the BatchScheduler::serve call
  bool traced = false;
  std::vector<std::vector<std::uint16_t>> rows;
};

}  // namespace

void run_engine(const Options& options, Report& report, SpanLog& spans) {
  const double warmup_s = options.smoke ? 0.2 : 0.5;

  std::vector<std::vector<mobility::Window>> batches(kBatchPool);
  {
    Rng rng(split_mix64(options.seed));
    for (auto& batch : batches) {
      batch.reserve(kRows);
      for (std::size_t r = 0; r < kRows; ++r) {
        batch.push_back(random_window(rng, kLocations));
      }
    }
  }

  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < setup_reps(options); ++rep) {
    engine.reset();
    double seconds = 0.0;
    engine = bring_up(options, spans, seconds);
    setup_s.push_back(seconds);
  }
  serve::BatchScheduler& scheduler = *engine->scheduler;
  bool all_int8 = true;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    const auto deployed = engine->registry->handle(user).snapshot();
    all_int8 = all_int8 && deployed->quantized() &&
               deployed->model_version() == 1;
  }
  report.check("every deployment serves the int8 artifact", all_int8);

  // Closed loop. Warm-up calls are served but not recorded.
  Rng rng(split_mix64(options.seed * 1000003ULL + 1));
  std::vector<serve::PredictRequest> requests(kRows);
  std::vector<Timed> plain;
  std::vector<double> traced_ms;
  std::vector<Sampled> sampled;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  bool instrumented = false;
  MachineSpeed speed(1);

  const Clock::time_point measure_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  const Clock::time_point measure_end =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds));
  serve::ServerStats::State stats_before;
  obs::RegistryState metrics_before;
  bool measuring = false;
  for (;;) {
    const Clock::time_point start = Clock::now();
    if (start >= measure_end) break;
    if (!measuring && start >= measure_start) {
      measuring = true;
      stats_before = scheduler.stats().state();
      metrics_before = scheduler.metrics().state();
    }
    const double at_s = seconds_between(measure_start, start);
    const bool traced = measuring && traced_slice(options, at_s);
    if (traced != instrumented) {
      scheduler.set_instrumentation(traced);
      instrumented = traced;
    }
    if (measuring && calls % kSpeedEvery == 0) speed.sample();
    const auto user = static_cast<std::uint32_t>(rng.below(kUsers));
    const std::size_t batch = rng.below(kBatchPool);
    for (std::size_t r = 0; r < kRows; ++r) {
      requests[r] = {user, batches[batch][r], kTopK};
    }

    const Clock::time_point call_start = Clock::now();
    std::vector<serve::PredictResponse> responses;
    {
      std::optional<SpanLog::Scope> span;
      if (traced) span.emplace(spans, "serve.batch");
      responses = scheduler.serve(requests);
    }
    const Clock::time_point call_end = Clock::now();
    if (!measuring) continue;

    const bool ok =
        responses.size() == kRows &&
        std::all_of(responses.begin(), responses.end(), [](const auto& r) {
          return r.ok && r.locations.size() == kTopK && r.model_version == 1;
        });
    ++calls;
    if (!ok) {
      ++failed;
      continue;
    }
    const double ms = ms_between(call_start, call_end);
    if (traced) {
      traced_ms.push_back(ms);
    } else {
      plain.push_back({seconds_between(measure_start, call_end), ms});
    }
    if ((calls - 1) % kCheckEvery == 0) {  // the first call, then every 32nd
      Sampled s{user, batch, ms, traced, {}};
      for (auto& response : responses) {
        s.rows.push_back(std::move(response.locations));
      }
      sampled.push_back(std::move(s));
    }
  }
  scheduler.set_instrumentation(false);
  const serve::ServerStats::State stats_after = scheduler.stats().state();
  const obs::RegistryState delta =
      obs::delta_state(scheduler.metrics().state(), metrics_before);
  const double rss_mb = peak_rss_mb();

  // The scheduler's own cost: the sampled calls again, in their original
  // order, straight into predict_top_k_batch on the deployments the
  // scheduler served them from.
  std::vector<double> direct_ms;
  std::vector<double> encode_ms;
  std::vector<double> int8_forward_ms;
  std::vector<double> rank_ms;
  {
    const SpanLog::Scope replay(spans, "replay.direct");
    for (const Sampled& s : sampled) {
      engine->registry->with_model(s.user, [&](core::DeployedModel& model) {
        const SpanLog::Scope span(spans, "core.predict_top_k_batch",
                                  replay.id());
        core::PredictStageSeconds stages;
        const Clock::time_point start = Clock::now();
        (void)model.predict_top_k_batch(batches[s.batch], kTopK, &stages);
        direct_ms.push_back(ms_between(start, Clock::now()));
        encode_ms.push_back(stages.encode * 1e3);
        int8_forward_ms.push_back(stages.forward * 1e3);
        rank_ms.push_back(stages.rank * 1e3);
      });
    }
  }

  // Correctness: the sampled calls on independent deployments of the same
  // int8 artifacts, and in a traced run on fp32 twins of the same weights.
  std::map<std::uint32_t, std::vector<const Sampled*>> by_user;
  for (const Sampled& s : sampled) by_user[s.user].push_back(&s);
  std::vector<double> fp32_forward_ms;
  std::vector<double> twin_int8_forward_ms;
  std::uint64_t mismatches = 0;
  std::uint64_t top1_rows = 0;
  std::uint64_t top1_agree = 0;
  {
    const SpanLog::Scope replay(spans, "replay.reference");
    for (const auto& [user, samples] : by_user) {
      core::DeployedModel direct(engine->store->get({kScope, user, 1}), kSpec,
                                 core::PrivacyLayer(kTemperature),
                                 core::DeploymentSite::kInCloud, 1);
      std::optional<core::DeployedModel> twin;
      if (options.traced) {
        twin.emplace(user_model(options.seed, user, 1, kSpec, kHidden), kSpec,
                     core::PrivacyLayer(kTemperature),
                     core::DeploymentSite::kInCloud, 1);
        (void)twin->predict_top_k_batch(batches[samples.front()->batch], kTopK);
      }
      // One untimed call so the timed ones see warm forward caches.
      (void)direct.predict_top_k_batch(batches[samples.front()->batch], kTopK);
      for (const Sampled* s : samples) {
        const auto& windows = batches[s->batch];
        core::PredictStageSeconds stages;
        std::vector<std::vector<std::uint16_t>> rows;
        {
          const SpanLog::Scope span(spans, "core.predict_top_k_batch",
                                    replay.id());
          rows = direct.predict_top_k_batch(windows, kTopK, &stages);
        }
        twin_int8_forward_ms.push_back(stages.forward * 1e3);
        if (rows != s->rows) ++mismatches;
        if (twin) {
          core::PredictStageSeconds fp32_stages;
          std::vector<std::vector<std::uint16_t>> fp32_rows;
          {
            const SpanLog::Scope span(spans, "nn.fp32_twin", replay.id());
            fp32_rows = twin->predict_top_k_batch(windows, kTopK, &fp32_stages);
          }
          fp32_forward_ms.push_back(fp32_stages.forward * 1e3);
          for (std::size_t r = 0; r < rows.size(); ++r) {
            ++top1_rows;
            if (rows[r].front() == fp32_rows[r].front()) ++top1_agree;
          }
        }
      }
    }
  }
  engine.reset();

  report.check("scheduler rows equal direct predict_top_k_batch (" +
                   std::to_string(sampled.size()) + " sampled calls)",
               !sampled.empty() && mismatches == 0,
               std::to_string(mismatches) + " mismatches");
  report.check("no failed serve calls", failed == 0,
               std::to_string(failed) + " of " + std::to_string(calls));
  report.add_ops(calls, failed + mismatches);

  std::vector<double> plain_ms;
  plain_ms.reserve(plain.size());
  for (const Timed& call : plain) plain_ms.push_back(call.ms);
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", rss_mb);
  report_phase(report,
               summarize_by_second(options, plain, static_cast<double>(kRows)),
               speed, plain_ms);

  report.set("gen.sent", static_cast<double>(calls));
  report.set("gen.failed", static_cast<double>(failed));
  report.set("serve.batch_assembly_p50_ms",
             histogram_percentile(
                 delta, obs::stage_metric_name(obs::Stage::kBatchAssembly), 50));
  const std::size_t batches_run = stats_after.batches - stats_before.batches;
  report.set("serve.mean_batch_rows",
             batches_run == 0
                 ? 0.0
                 : static_cast<double>(stats_after.batch_rows -
                                       stats_before.batch_rows) /
                       static_cast<double>(batches_run));
  report.set("serve.rejected",
             static_cast<double>((stats_after.rejected + stats_after.shed) -
                                 (stats_before.rejected + stats_before.shed)));
  report.set("serve.deadline_shed",
             counter_value(delta, "requests_deadline_shed_total"));
  std::vector<double> sampled_ms;
  for (const Sampled& s : sampled) {
    if (!s.traced) sampled_ms.push_back(s.ms);
  }
  report.set("serve.overhead_p50_ms", median(sampled_ms) - median(direct_ms));
  report.set("core.encode_p50_ms", quantile(encode_ms, 0.50));
  report.set("core.forward_p50_ms", quantile(int8_forward_ms, 0.50));
  report.set("core.rank_p50_ms", quantile(rank_ms, 0.50));
  if (options.traced) {
    const double fp32_forward = quantile(fp32_forward_ms, 0.50);
    report.set("nn.fp32_forward_p50_ms", fp32_forward);
    report.set("nn.int8_over_fp32_forward",
               fp32_forward == 0.0
                   ? 0.0
                   : quantile(twin_int8_forward_ms, 0.50) / fp32_forward);
    report.set("nn.int8_top1_agreement",
               top1_rows == 0 ? 0.0
                              : static_cast<double>(top1_agree) /
                                    static_cast<double>(top1_rows));
    report.set("obs.tracing_overhead_frac", overhead_frac(plain_ms, traced_ms));
  }
}

}  // namespace pelican::e2e
