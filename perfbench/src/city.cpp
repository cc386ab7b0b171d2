// Workload `city`: the paper-scale compute path.
//
// Four 100x100 up-4 regional streams cut from ONE 200x200 city (so they
// share one normalisation and may fuse), stride 10 (81 windows per frame).
// Two streams are served by the float generator and two by its int8 twin.
// Closed loop, one caller: one Engine::push_all per interval, frame-major.
// The wire, dedup and training are bypassed.
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/tensor/tensor_ops.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mtsr::Tensor;
using mtsr::serving::Engine;

constexpr int kStreams = 4;
constexpr std::int64_t kRegion = 100;
constexpr std::int64_t kFrames = 12;  // intervals cycled through
/// Relative tolerance (against the frame's largest cell) of a float stream
/// served in a fused pass versus the same model served alone: fusion widens
/// the GEMMs and moves float-add order (Scheduler numerics contract).
constexpr double kFloatFusionTolerance = 1e-4;
/// Rounds timed at one pool worker for pool.speedup_1_to_4.
constexpr int kSingleWorkerRounds = 5;

bool is_int8(int stream) { return stream >= 2; }
const char* model_of(int stream) {
  return is_int8(stream) ? "zipnet-int8" : "zipnet";
}

struct City {
  std::unique_ptr<mtsr::data::TrafficDataset> dataset;
  /// regions[stream][frame]: the stream's 100x100 crop of each interval.
  std::vector<std::vector<Tensor>> regions;
  std::unique_ptr<mtsr::core::MtsrPipeline> pipeline;
  std::shared_ptr<mtsr::serving::Model> float_model, int8_model;
  std::unique_ptr<Engine> engine;
  std::vector<Engine::SessionId> ids;
  std::vector<std::size_t> order;
  std::int64_t next = 0;  ///< interval counter (frame = order[next % F])

  [[nodiscard]] mtsr::serving::SessionConfig session_config(int s) const {
    mtsr::serving::SessionConfig config;
    config.model = model_of(s);
    config.instance = pipeline->config().instance;
    config.rows = kRegion;
    config.cols = kRegion;
    config.window = pipeline->config().window;
    config.stitch_stride = pipeline->config().stitch_stride;
    config.stats = dataset->stats();
    config.log_transform = dataset->log_transform();
    return config;
  }

  [[nodiscard]] const Tensor& frame(int s, std::int64_t t) const {
    return regions[static_cast<std::size_t>(s)]
                  [order[static_cast<std::size_t>(t % kFrames)]];
  }

  void open_sessions() {
    ids.clear();
    for (int s = 0; s < kStreams; ++s) {
      ids.push_back(engine->open_session(session_config(s)));
    }
  }

  /// One frame-major interval through push_all.
  std::vector<std::optional<Tensor>> round() {
    std::vector<Tensor> frames;
    for (int s = 0; s < kStreams; ++s) frames.push_back(frame(s, next));
    ++next;
    return engine->push_all(ids, frames);
  }

  /// Fills every history and serves one round, so arenas reach their
  /// high-water mark before timing starts.
  void warm_up() {
    const std::int64_t s = pipeline->config().temporal_length;
    for (std::int64_t i = 0; i < s; ++i) (void)round();
  }
};

std::unique_ptr<City> build_city(const Options& options,
                                 const std::shared_ptr<ModelProbe>& probe) {
  auto city = std::make_unique<City>();
  // Each input (city, frame order, weights, ...) draws its own stream.
  const auto seed = [&](std::uint64_t key) {
    return mtsr::Rng::derive_stream_seed(options.seed, key);
  };
  city->dataset = std::make_unique<mtsr::data::TrafficDataset>(make_city(
      2 * kRegion, 2 * kRegion, kFrames, 80, seed(1)));
  city->regions.resize(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    const std::int64_t r0 = (s / 2) * kRegion, c0 = (s % 2) * kRegion;
    for (std::int64_t t = 0; t < kFrames; ++t) {
      city->regions[static_cast<std::size_t>(s)].push_back(
          mtsr::crop2d(city->dataset->frame(t), r0, c0, kRegion, kRegion));
    }
  }
  city->order = frame_order(kFrames, seed(2));
  city->pipeline = std::make_unique<mtsr::core::MtsrPipeline>(
      pipeline_config(seed(3)), *city->dataset);
  const auto& config = city->pipeline->config();
  city->float_model =
      std::make_shared<mtsr::serving::ZipNetModel>(city->pipeline->generator());
  city->int8_model = mtsr::serving::quantize_generator(
      city->pipeline->generator(),
      mtsr::serving::calibration_batches(
          *city->dataset, city->pipeline->window_layout(),
          config.temporal_length, config.window, /*frames=*/4));
  city->engine = std::make_unique<Engine>();
  city->engine->register_model("zipnet",
                               maybe_traced(city->float_model, probe, false));
  city->engine->register_model("zipnet-int8",
                               maybe_traced(city->int8_model, probe, true));
  city->open_sessions();
  city->warm_up();
  return city;
}

/// Outputs of one timed round, kept for the reference check.
struct Sample {
  std::int64_t t = 0;  ///< interval of the newest frame
  std::vector<Tensor> outputs;
};

/// Re-serves each sampled round stream by stream through fresh
/// single-session engines and compares: int8 bitwise (exact s32
/// accumulation makes fusion batch-invariant), float within
/// kFloatFusionTolerance.
void check_against_reference(City& city, const std::vector<Sample>& samples,
                             Report& report) {
  Engine reference;
  reference.register_model("zipnet", city.float_model);
  reference.register_model("zipnet-int8", city.int8_model);
  const std::int64_t s_len = city.pipeline->config().temporal_length;
  double worst_float = 0;
  for (const Sample& sample : samples) {
    for (int s = 0; s < kStreams; ++s) {
      const auto id = reference.open_session(city.session_config(s));
      std::optional<Tensor> out;
      for (std::int64_t t = sample.t - s_len + 1; t <= sample.t; ++t) {
        out = reference.push(id, city.frame(s, t));
      }
      reference.close_session(id);
      const Tensor& served = sample.outputs[static_cast<std::size_t>(s)];
      if (!out) {
        report.check(false, "city reference produced no frame");
      } else if (is_int8(s)) {
        report.check(bitwise_equal(served, *out),
                     "city int8 stream " + std::to_string(s) +
                         " bitwise equal to single-session reference");
      } else {
        const double err = max_relative_error(served, *out);
        worst_float = std::max(worst_float, err);
        report.check(err <= kFloatFusionTolerance,
                     "city float stream " + std::to_string(s) +
                         " within tolerance of reference (error " +
                         std::to_string(err) + ")");
      }
    }
  }
  std::cerr << "perfbench city: worst float fusion error " << worst_float
            << " (tolerance " << kFloatFusionTolerance << ")\n";
}

/// Median round time at one pool worker, over kSingleWorkerRounds rounds.
double single_worker_round_ms(City& city) {
  for (const auto id : city.ids) city.engine->close_session(id);
  mtsr::set_num_threads(1);
  city.open_sessions();
  city.warm_up();
  std::vector<double> ms;
  for (int i = 0; i < kSingleWorkerRounds; ++i) {
    mtsr::Stopwatch sw;
    (void)city.round();
    ms.push_back(sw.millis());
  }
  for (const auto id : city.ids) city.engine->close_session(id);
  city.ids.clear();
  mtsr::set_num_threads(0);
  return median(ms);
}

}  // namespace

Report run_city(const Options& options) {
  Report report;
  const auto probe =
      options.trace ? std::make_shared<ModelProbe>() : nullptr;

  SetupSampler<City> setups(options,
                           [&] { return build_city(options, probe); });
  const auto city = setups.first_state();

  // Traced runs leave a quarter of the time to the one-worker rounds.
  const double budget = options.trace ? options.seconds * 0.75
                                      : options.seconds;
  TraceToggle toggle(options.trace);
  std::vector<double> round_ms;
  std::vector<Sample> samples;
  std::optional<Sample> last;
  double traced_wall_ms = 0;
  std::int64_t traced_frames = 0, served = 0;

  const EngineSnapshot before = engine_snapshot(*city->engine);
  const PoolSnapshot pool_before = pool_snapshot();
  while (setups.phase_seconds() < budget || round_ms.empty()) {
    const bool traced = toggle.next();
    if (probe) probe->set_enabled(traced);
    const std::int64_t t = city->next;
    mtsr::Stopwatch sw;
    auto outs = city->round();
    const double ms = sw.millis();
    round_ms.push_back(ms);
    toggle.record(traced, ms);
    if (traced) {
      traced_wall_ms += ms;
      traced_frames += kStreams;
    }
    for (int s = 0; s < kStreams; ++s) {
      const auto& out = outs[static_cast<std::size_t>(s)];
      const bool ok = out.has_value() && all_finite(*out);
      report.op(ok, "city push returned no finite frame");
      served += ok ? 1 : 0;
    }
    // Reference samples: the first round, the eighth and the last.
    Sample sample{t, {}};
    for (auto& out : outs) {
      sample.outputs.push_back(out ? std::move(*out) : Tensor());
    }
    const std::size_t n = round_ms.size();
    if (n == 1 || n == 8) {
      samples.push_back(std::move(sample));
    } else {
      last = std::move(sample);
    }
    setups.at_safe_point();
  }
  const double wall_s = setups.phase_seconds();
  if (probe) probe->set_enabled(false);
  const PoolSnapshot pool_after = pool_snapshot();
  const EngineSnapshot after = engine_snapshot(*city->engine);

  setups.report(report);
  report.set("items_per_s", static_cast<double>(served) / wall_s);
  report.set("latency_p50_ms", quantile(round_ms, 0.5));
  report.set("latency_p90_ms", quantile(round_ms, 0.9));
  std::cerr << "perfbench city: " << round_ms.size() << " rounds in "
            << wall_s << " s\n";

  if (last) samples.push_back(std::move(*last));
  check_against_reference(*city, samples, report);

  if (options.trace) {
    report_serving_layers(report, probe->totals(), traced_wall_ms,
                          traced_frames, before, after);
    report.set("pool.utilization",
               pool_utilization(pool_before, pool_after, wall_s));
    report.set("trace.overhead", toggle.overhead());
    report.set("pool.speedup_1_to_4",
               single_worker_round_ms(*city) / toggle.untraced_median());
  }
  return report;
}

}  // namespace perfbench
