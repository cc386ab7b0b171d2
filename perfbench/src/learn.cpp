// Workload `learn`: the continuous learner — serving beside online
// fine-tuning, checkpoint write/read and hot-reload, with the model written
// beside its reads.
//
// The timed operation is one learner PERIOD of two cycles on a
// stream-tagged 40x40 feed. Each cycle is 4 Engine::push calls, then
// online::Trainer::run_rounds(1) with the TrainerConfig defaults (the
// legacy serial step, a candidate every 2nd round, the holdout gate,
// promotion through reload_model), so every period emits and gates exactly
// one candidate. The one departure from the defaults is the gate's margin:
// it is opened so that every finite candidate promotes. With the default
// 5% margin the decision sits close to its threshold (0 to 5 promotions
// in 5 periods, depending on the seed), so any change of float rounding
// could flip it, and the work in a period would differ from seed to seed.
// Both holdout evaluations still run on every gate, and a candidate with a
// non-finite holdout error is still rejected.
//
// Everything runs synchronously on one thread, so no background thread
// competes with the pool. The learner restarts every kPeriodsPerEpisode
// periods from the same weights and the same frames: every episode must
// promote every candidate and end on a bitwise-identical served frame.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "src/online/trainer.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mtsr::Tensor;
using mtsr::serving::Engine;

constexpr std::int64_t kSide = 40;
constexpr std::int64_t kFrames = 96;
constexpr int kPushesPerCycle = 4;
constexpr int kCyclesPerPeriod = 2;
constexpr int kPeriodsPerEpisode = 5;
/// Frames pushed before an episode's first period, so its first round
/// already has a trainable tap.
constexpr int kEpisodeWarmup = 8;
/// Every finite candidate passes the holdout gate (see the header).
constexpr double kOpenGateMargin = 1e9;

/// What one episode ends with.
struct Episode {
  std::int64_t steps = 0, promoted = 0, rejected = 0;
  Tensor last_frame;  ///< the episode's last served frame
};

struct Learn {
  Learn() = default;
  Learn(const Learn&) = delete;
  Learn& operator=(const Learn&) = delete;

  std::unique_ptr<mtsr::data::TrafficDataset> dataset;
  std::int64_t first_frame = 0;  ///< episode stream start (seed-derived)
  std::unique_ptr<mtsr::core::MtsrPipeline> pipeline;
  std::shared_ptr<mtsr::serving::Model> pristine;  ///< registered at start
  std::unique_ptr<Engine> engine;
  Engine::SessionId session = 0;
  std::unique_ptr<mtsr::online::Trainer> trainer;
  mtsr::online::TrainerConfig trainer_config;
  std::int64_t pushed = 0;  ///< frames pushed in the current episode

  [[nodiscard]] const Tensor& next_frame() {
    return dataset->frame(first_frame + pushed++);
  }

  /// Starts an episode: pristine weights, empty history, a fresh learner,
  /// then kEpisodeWarmup frames pushed.
  void start_episode() {
    drop_trainer();
    engine->reload_model("zipnet", pristine);
    engine->session(session).reset();
    trainer = std::make_unique<mtsr::online::Trainer>(
        *engine, pipeline->generator(), trainer_config);
    pushed = 0;
    for (int i = 0; i < kEpisodeWarmup; ++i) {
      (void)engine->push(session, next_frame());
    }
  }

  [[nodiscard]] Episode end_episode(Tensor last_frame) const {
    const auto stats = trainer->stats();
    return {stats.steps, stats.promoted, stats.rejected,
            std::move(last_frame)};
  }

  /// Detaches the learner and deletes the checkpoint files it kept.
  void drop_trainer() {
    if (!trainer) return;
    const auto paths = trainer->retained_checkpoints();
    trainer.reset();
    for (const auto& path : paths) std::remove(path.c_str());
  }

  ~Learn() { drop_trainer(); }
};

std::unique_ptr<Learn> build_learn(const Options& options,
                                   const std::shared_ptr<ModelProbe>& probe) {
  const auto seed = [&](std::uint64_t key) {
    return mtsr::Rng::derive_stream_seed(options.seed, key);
  };
  auto l = std::make_unique<Learn>();
  l->dataset = std::make_unique<mtsr::data::TrafficDataset>(
      make_city(kSide, kSide, kFrames, 30, seed(31)));
  const std::int64_t span =
      kEpisodeWarmup + kPeriodsPerEpisode * kCyclesPerPeriod * kPushesPerCycle;
  l->first_frame = static_cast<std::int64_t>(
      seed(32) % static_cast<std::uint64_t>(kFrames - span + 1));

  l->pipeline = std::make_unique<mtsr::core::MtsrPipeline>(
      pipeline_config(seed(33)), *l->dataset);
  l->pristine = maybe_traced(
      std::make_shared<mtsr::serving::ZipNetModel>(l->pipeline->generator()),
      probe, false);
  l->engine = std::make_unique<Engine>();
  l->engine->register_model("zipnet", l->pristine);
  const auto& config = l->pipeline->config();
  auto session = mtsr::serving::SessionConfig::from_dataset(
      "zipnet", config.instance, *l->dataset, config.window,
      config.stitch_stride);
  session.stream = "learn-feed";
  l->session = l->engine->open_session(session);

  l->trainer_config = mtsr::online::TrainerConfig::from_dataset(
      "zipnet", config.instance, *l->dataset, config.window);
  l->trainer_config.stream = "learn-feed";
  l->trainer_config.trainer.seed = seed(34);
  l->trainer_config.max_nrmse_regression = kOpenGateMargin;
  l->trainer_config.checkpoint_dir = options.work_dir;
  l->trainer_config.checkpoint_prefix = "learn-ckpt";
  l->start_episode();
  return l;
}

}  // namespace

Report run_learn(const Options& options) {
  Report report;
  const auto probe =
      options.trace ? std::make_shared<ModelProbe>() : nullptr;
  SetupSampler<Learn> setups(options,
                             [&] { return build_learn(options, probe); });
  const auto l = setups.first_state();

  TraceToggle toggle(options.trace);
  std::vector<double> period_ms, cycle_ms, round_ms, push_ms;
  std::vector<Episode> episodes;
  double traced_wall_ms = 0;
  std::int64_t traced_frames = 0, served = 0;
  int periods_in_episode = 0;
  Tensor last_frame;  ///< the newest served frame

  const EngineSnapshot before = engine_snapshot(*l->engine);
  const PoolSnapshot pool_before = pool_snapshot();
  double timed_s = 0;
  while (true) {
    if (periods_in_episode == kPeriodsPerEpisode) {
      episodes.push_back(l->end_episode(last_frame));
      if (setups.phase_seconds() >= options.seconds) break;
      l->start_episode();
      periods_in_episode = 0;
    }
    const bool traced = toggle.next();
    if (probe) probe->set_enabled(traced);
    mtsr::Stopwatch period;
    double period_push_ms = 0;
    for (int c = 0; c < kCyclesPerPeriod; ++c) {
      for (int i = 0; i < kPushesPerCycle; ++i) {
        mtsr::Stopwatch sw;
        auto out = l->engine->push(l->session, l->next_frame());
        push_ms.push_back(sw.millis());
        period_push_ms += push_ms.back();
        const bool ok = out.has_value() && all_finite(*out);
        report.op(ok, "learn push returned no finite frame");
        if (ok) {
          ++served;
          last_frame = std::move(*out);
        }
      }
      mtsr::Stopwatch sw;
      bool ok = true;
      try {
        ok = l->trainer->run_rounds(1) == 1;
      } catch (const std::exception& e) {
        ok = false;
        std::cerr << "perfbench learn: trainer round threw: " << e.what()
                  << "\n";
      }
      round_ms.push_back(sw.millis());
      report.op(ok, "online trainer round");
    }
    const double ms = period.millis();
    // Episode restarts between periods are not traced.
    if (probe) probe->set_enabled(false);
    cycle_ms.push_back(ms / kCyclesPerPeriod);
    period_ms.push_back(ms);
    timed_s += ms / 1e3;
    toggle.record(traced, ms);
    if (traced) {
      traced_wall_ms += period_push_ms;
      traced_frames += kCyclesPerPeriod * kPushesPerCycle;
    }
    ++periods_in_episode;
    setups.at_safe_point();
  }
  const double wall_s = setups.phase_seconds();
  const PoolSnapshot pool_after = pool_snapshot();
  const EngineSnapshot after = engine_snapshot(*l->engine);

  setups.report(report);
  report.set("items_per_s", static_cast<double>(served) / timed_s);
  report.set("latency_p50_ms", quantile(period_ms, 0.5));
  report.set("latency_p90_ms", quantile(period_ms, 0.9));
  std::cerr << "perfbench learn: " << period_ms.size() << " periods, "
            << episodes.size() << " episodes in " << wall_s << " s\n";

  // Every episode gates and promotes one candidate per period, and repeats
  // the first episode bit for bit.
  const Episode& first = episodes.front();
  const std::int64_t steps_per_episode =
      static_cast<std::int64_t>(kPeriodsPerEpisode) * kCyclesPerPeriod *
      l->trainer_config.steps_per_round;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& e = episodes[i];
    const std::string name = "episode " + std::to_string(i);
    report.check(e.steps == steps_per_episode &&
                     e.promoted == kPeriodsPerEpisode && e.rejected == 0,
                 name + " trains every round and promotes every candidate");
    report.check(bitwise_equal(e.last_frame, first.last_frame),
                 name + " serves the first episode's last frame");
  }

  if (options.trace) {
    const ModelProbe::Totals totals = probe->totals();
    report_serving_layers(report, totals, traced_wall_ms, traced_frames,
                          before, after);
    report.set("pool.utilization",
               pool_utilization(pool_before, pool_after, wall_s));
    report.set("learn_cycle_ms", median(cycle_ms));
    report.set("online.round_ms", mean(round_ms));
    report.set("online.serve_ms_per_frame", mean(push_ms));
    report.set("online.reload_ms", mean(totals.reload_ms));
    report.set("online.steps", static_cast<double>(first.steps));
    report.set("online.promoted", static_cast<double>(first.promoted));
    report.set("online.rejected", static_cast<double>(first.rejected));
    report.set("trace.overhead", toggle.overhead());
  }
  return report;
}

}  // namespace perfbench
