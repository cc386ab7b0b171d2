// Workload `train`: offline Algorithm-1 training — backward passes and
// optimizer steps of the replica-sharded GanTrainer step.
//
// The timed operation is one ITERATION: GanTrainer::pretrain(source, 1)
// then GanTrainer::train(source, 1) (one D step and one G step) with the
// default trainer config on the bench pipeline geometry (window 20,
// batch 8). Everything runs synchronously on one caller thread; the
// trainer's own staging thread draws the samples.
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kSide = 40;
constexpr std::int64_t kFrames = 96;

struct Train {
  std::unique_ptr<mtsr::data::TrafficDataset> dataset;
  std::unique_ptr<mtsr::core::MtsrPipeline> pipeline;
  mtsr::core::SampleSource source;
};

std::unique_ptr<Train> build_train(const Options& options,
                                   const std::shared_ptr<SourceProbe>& probe) {
  const auto seed = [&](std::uint64_t key) {
    return mtsr::Rng::derive_stream_seed(options.seed, key);
  };
  auto t = std::make_unique<Train>();
  t->dataset = std::make_unique<mtsr::data::TrafficDataset>(
      make_city(kSide, kSide, kFrames, 30, seed(21)));
  t->pipeline = std::make_unique<mtsr::core::MtsrPipeline>(
      pipeline_config(seed(23)), *t->dataset);
  t->source = t->pipeline->make_sample_source(t->dataset->train_range());
  if (probe) t->source = traced_source(t->source, probe);
  // Warm the trainer's arenas and staging thread.
  (void)t->pipeline->trainer().pretrain(t->source, 1);
  (void)t->pipeline->trainer().train(t->source, 1);
  return t;
}

}  // namespace

Report run_train(const Options& options) {
  Report report;
  const auto probe =
      options.trace ? std::make_shared<SourceProbe>() : nullptr;
  SetupSampler<Train> setups(options,
                             [&] { return build_train(options, probe); });
  const auto t = setups.first_state();
  auto& trainer = t->pipeline->trainer();
  // Optimizer steps per iteration: one pretrain step, then n_d x
  // critic_iters D steps and n_g G steps (1 + 1 + 1 by default).
  const auto& config = trainer.config();
  const int steps_per_iteration =
      1 + config.n_d * config.critic_iters + config.n_g;
  const double samples_per_iteration =
      steps_per_iteration * config.batch_size;

  TraceToggle toggle(options.trace);
  std::vector<double> iteration_ms, pretrain_ms, gan_ms;
  double traced_ms = 0, traced_busy = 0;
  std::int64_t traced_steps = 0;

  const PoolSnapshot pool_before = pool_snapshot();
  double timed_s = 0;
  while (setups.phase_seconds() < options.seconds || iteration_ms.empty()) {
    const bool traced = toggle.next();
    if (probe) probe->enabled.store(traced);
    const PoolSnapshot p0 = pool_snapshot();
    mtsr::Stopwatch sw;
    bool ok = true;
    double pre = 0;
    try {
      const auto losses = trainer.pretrain(t->source, 1);
      pre = sw.millis();
      const auto rounds = trainer.train(t->source, 1);
      ok = losses.size() == 1 && rounds.size() == 1 &&
           std::isfinite(losses.front());
    } catch (const std::exception& e) {
      ok = false;
      std::cerr << "perfbench train: training step threw: " << e.what()
                << "\n";
    }
    const double ms = sw.millis();
    if (probe) probe->enabled.store(false);
    const PoolSnapshot p1 = pool_snapshot();
    report.op(ok, "offline training iteration");
    iteration_ms.push_back(ms);
    pretrain_ms.push_back(pre);
    gan_ms.push_back(ms - pre);
    timed_s += ms / 1e3;
    toggle.record(traced, ms);
    if (traced) {
      traced_ms += ms;
      traced_busy += p1.busy_seconds - p0.busy_seconds;
      traced_steps += steps_per_iteration;
    }
    setups.at_safe_point();
  }
  const double wall_s = setups.phase_seconds();
  const PoolSnapshot pool_after = pool_snapshot();

  setups.report(report);
  report.set("items_per_s",
             samples_per_iteration * static_cast<double>(iteration_ms.size()) /
                 timed_s);
  report.set("latency_p50_ms", quantile(iteration_ms, 0.5));
  report.set("latency_p90_ms", quantile(iteration_ms, 0.9));
  std::cerr << "perfbench train: " << iteration_ms.size() << " iterations in "
            << wall_s << " s\n";

  if (options.trace) {
    report.set("pool.utilization",
               pool_utilization(pool_before, pool_after, wall_s));
    report.set("train_step_ms", median(pretrain_ms));
    report.set("gan_round_ms", median(gan_ms));
    if (traced_steps > 0) {
      const double sample_ms = static_cast<double>(probe->nanos.load()) / 1e6;
      const auto steps = static_cast<double>(traced_steps);
      report.set("train.sample_ms_per_step", sample_ms / steps);
      report.set("train.compute_ms_per_step", (traced_ms - sample_ms) / steps);
      report.set("train.pool_utilization",
                 traced_busy / (traced_ms / 1e3 *
                                static_cast<double>(pool_after.workers)));
    }
    report.set("train.replica_workers", trainer.replica_workers());
    report.set("trace.overhead", toggle.overhead());
  }
  return report;
}

}  // namespace perfbench
