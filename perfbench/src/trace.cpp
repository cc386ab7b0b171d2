#include "trace.hpp"

#include <chrono>

#include "src/common/stopwatch.hpp"

namespace perfbench {

void ModelProbe::record_predict(bool int8, std::int64_t windows,
                                double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  (int8 ? totals_.int8_windows : totals_.float_windows) += windows;
  (int8 ? totals_.int8_seconds : totals_.float_seconds) += seconds;
  totals_.pass_ms.push_back(seconds * 1e3);
}

void ModelProbe::record_reload(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.reload_ms.push_back(seconds * 1e3);
}

ModelProbe::Totals ModelProbe::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

TracedModel::TracedModel(std::shared_ptr<mtsr::serving::Model> inner,
                         std::shared_ptr<ModelProbe> probe, bool int8)
    : inner_(std::move(inner)), probe_(std::move(probe)), int8_(int8) {}

mtsr::Tensor TracedModel::predict(const mtsr::serving::WindowBatch& batch,
                                  const mtsr::serving::StreamContext& stream) {
  if (!probe_->enabled()) return inner_->predict(batch, stream);
  mtsr::Stopwatch sw;
  mtsr::Tensor out = inner_->predict(batch, stream);
  probe_->record_predict(int8_, out.dim(0), sw.seconds());
  return out;
}

std::shared_ptr<mtsr::serving::Model> TracedModel::load_checkpoint(
    const std::string& path) const {
  mtsr::Stopwatch sw;
  auto next = inner_->load_checkpoint(path);
  probe_->record_reload(sw.seconds());
  return std::make_shared<TracedModel>(std::move(next), probe_, int8_);
}

std::shared_ptr<mtsr::serving::Model> maybe_traced(
    std::shared_ptr<mtsr::serving::Model> model,
    const std::shared_ptr<ModelProbe>& probe, bool int8) {
  if (!probe) return model;
  return std::make_shared<TracedModel>(std::move(model), probe, int8);
}

mtsr::core::SampleSource traced_source(mtsr::core::SampleSource inner,
                                       std::shared_ptr<SourceProbe> probe) {
  return [inner = std::move(inner), probe = std::move(probe)](mtsr::Rng& rng) {
    if (!probe->enabled.load(std::memory_order_relaxed)) return inner(rng);
    const auto t0 = std::chrono::steady_clock::now();
    mtsr::data::Sample sample = inner(rng);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    probe->nanos.fetch_add(ns, std::memory_order_relaxed);
    return sample;
  };
}

EngineSnapshot engine_snapshot(const mtsr::serving::Engine& engine) {
  const auto stats = engine.stats();
  EngineSnapshot snap;
  snap.passes = stats.scheduler.passes;
  snap.fused_passes = stats.scheduler.fused_passes;
  snap.windows = stats.scheduler.windows;
  snap.dedup_lookups = stats.scheduler.dedup_lookups;
  snap.dedup_hits = stats.scheduler.dedup_hits;
  for (const auto& s : stats.sessions) {
    snap.arena_growth += s.arena.growth_events;
  }
  for (const auto& s : stats.shards) {
    snap.arena_growth += s.arena.growth_events;
  }
  return snap;
}

void report_serving_layers(Report& report, const ModelProbe::Totals& probe,
                           double traced_wall_ms, std::int64_t traced_frames,
                           const EngineSnapshot& before,
                           const EngineSnapshot& after) {
  if (probe.float_seconds > 0) {
    report.set("predict.float.windows_per_s",
               static_cast<double>(probe.float_windows) / probe.float_seconds);
  }
  if (probe.int8_seconds > 0) {
    report.set("predict.int8.windows_per_s",
               static_cast<double>(probe.int8_windows) / probe.int8_seconds);
  }
  const double predict_ms = (probe.float_seconds + probe.int8_seconds) * 1e3;
  if (traced_wall_ms > 0) {
    report.set("predict.busy_share", predict_ms / traced_wall_ms);
  }
  report.set("predict.pass_p50_ms", median(probe.pass_ms));
  if (traced_frames > 0) {
    report.set("serving.overhead_ms_per_frame",
               (traced_wall_ms - predict_ms) /
                   static_cast<double>(traced_frames));
  }
  const std::int64_t passes = after.passes - before.passes;
  if (passes > 0) {
    report.set("scheduler.windows_per_pass",
               static_cast<double>(after.windows - before.windows) /
                   static_cast<double>(passes));
    report.set("scheduler.fused_pass_share",
               static_cast<double>(after.fused_passes - before.fused_passes) /
                   static_cast<double>(passes));
  }
  const std::int64_t lookups = after.dedup_lookups - before.dedup_lookups;
  if (lookups > 0) {
    report.set("scheduler.dedup_hit_ratio",
               static_cast<double>(after.dedup_hits - before.dedup_hits) /
                   static_cast<double>(lookups));
  }
  report.set("session.arena_growth",
             static_cast<double>(after.arena_growth - before.arena_growth));
}

}  // namespace perfbench
