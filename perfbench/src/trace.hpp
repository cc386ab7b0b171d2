// Bench-side tracing: wrappers around the library's public extension
// points, so per-layer time is measured from outside the program.
//
//  * TracedModel decorates a serving::Model. predict() is timed per pass
//    (windows and seconds, float and int8 apart); load_checkpoint() is
//    timed and re-wraps the model it returns, so a hot-reloaded model stays
//    traced.
//  * traced_source() wraps a core::SampleSource and adds the time spent
//    drawing samples (on whichever thread the trainer draws them).
//
// Probes are switched on and off by the workload loop, so one run holds
// traced and untraced operations side by side (trace.overhead).
#pragma once
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/core/gan_trainer.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"

namespace perfbench {

/// Accumulates what TracedModel measures. Thread-safe: predict runs on the
/// scheduler's serving thread, reloads on the trainer's.
class ModelProbe {
 public:
  struct Totals {
    std::int64_t float_windows = 0, int8_windows = 0;
    double float_seconds = 0, int8_seconds = 0;
    std::vector<double> pass_ms;    ///< every traced predict call
    std::vector<double> reload_ms;  ///< every load_checkpoint call
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void record_predict(bool int8, std::int64_t windows, double seconds);
  void record_reload(double seconds);
  [[nodiscard]] Totals totals() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  Totals totals_;
};

class TracedModel final : public mtsr::serving::Model {
 public:
  TracedModel(std::shared_ptr<mtsr::serving::Model> inner,
              std::shared_ptr<ModelProbe> probe, bool int8);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::int64_t temporal_length() const override {
    return inner_->temporal_length();
  }
  [[nodiscard]] mtsr::serving::ModelInputs inputs() const override {
    return inner_->inputs();
  }
  void validate(const mtsr::serving::StreamContext& stream) const override {
    inner_->validate(stream);
  }
  [[nodiscard]] mtsr::Tensor predict(
      const mtsr::serving::WindowBatch& batch,
      const mtsr::serving::StreamContext& stream) override;
  [[nodiscard]] std::shared_ptr<mtsr::serving::Model> load_checkpoint(
      const std::string& path) const override;

 private:
  std::shared_ptr<mtsr::serving::Model> inner_;
  std::shared_ptr<ModelProbe> probe_;
  bool int8_;
};

/// Wraps `model` in a TracedModel when `probe` is set, else returns it.
[[nodiscard]] std::shared_ptr<mtsr::serving::Model> maybe_traced(
    std::shared_ptr<mtsr::serving::Model> model,
    const std::shared_ptr<ModelProbe>& probe, bool int8);

/// Sample-draw time of a wrapped SampleSource.
struct SourceProbe {
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> nanos{0};
};

[[nodiscard]] mtsr::core::SampleSource traced_source(
    mtsr::core::SampleSource inner, std::shared_ptr<SourceProbe> probe);

/// Counters of an engine at one instant (Engine::stats), for deltas.
struct EngineSnapshot {
  std::int64_t passes = 0, fused_passes = 0, windows = 0;
  std::int64_t dedup_lookups = 0, dedup_hits = 0;
  std::int64_t arena_growth = 0;  ///< sessions' and shards' arenas
};
[[nodiscard]] EngineSnapshot engine_snapshot(const mtsr::serving::Engine& e);

/// Fills the serving-layer per-layer metrics shared by every workload:
/// predict throughput and busy share, serving overhead per frame and the
/// scheduler ratios. `traced_wall_ms` is the wall time of the traced
/// operations, `traced_frames` the frames they served.
void report_serving_layers(Report& report, const ModelProbe::Totals& probe,
                           double traced_wall_ms, std::int64_t traced_frames,
                           const EngineSnapshot& before,
                           const EngineSnapshot& after);

}  // namespace perfbench
