#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/topology.hpp"
#include "src/data/milan.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"items_per_s", "items/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"predict.float.windows_per_s", "windows/s"},
      {"predict.int8.windows_per_s", "windows/s"},
      {"predict.busy_share", "ratio"},
      {"predict.pass_p50_ms", "ms"},
      {"serving.overhead_ms_per_frame", "ms/frame"},
      {"scheduler.windows_per_pass", "windows/pass"},
      {"scheduler.fused_pass_share", "ratio"},
      {"scheduler.dedup_hit_ratio", "ratio"},
      {"session.arena_growth", "count"},
      {"pool.utilization", "ratio"},
      {"pool.speedup_1_to_4", "x"},
      {"net.server_p50_ms", "ms"},
      {"net.server_p99_ms", "ms"},
      {"net.client_wait_p50_ms", "ms"},
      {"net.latency_p99_ms", "ms"},
      {"net.max_queue_depth", "count"},
      {"net.rejected", "count"},
      {"train_step_ms", "ms"},
      {"gan_round_ms", "ms"},
      {"train.sample_ms_per_step", "ms"},
      {"train.compute_ms_per_step", "ms"},
      {"train.pool_utilization", "ratio"},
      {"train.replica_workers", "count"},
      {"learn_cycle_ms", "ms"},
      {"online.round_ms", "ms"},
      {"online.serve_ms_per_frame", "ms/frame"},
      {"online.reload_ms", "ms"},
      {"online.steps", "count"},
      {"online.promoted", "count"},
      {"online.rejected", "count"},
      {"error_ratio", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return specs;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: operation failed: " << what << "\n";
  }
}

void Report::check(bool ok, const std::string& what) {
  op(ok, "check: " + what);
  if (!ok) correct_ = false;
}

std::string Report::json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double v = get(specs[i].name);
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += i ? ", " : "";
    out += std::string("\"") + specs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

PoolSnapshot pool_snapshot() {
  PoolSnapshot snap;
  for (const auto& shard : mtsr::pool_shard_stats()) {
    snap.busy_seconds += shard.busy_seconds;
    snap.workers += shard.workers;
  }
  return snap;
}

double pool_utilization(const PoolSnapshot& before, const PoolSnapshot& after,
                        double wall_seconds) {
  const int workers = std::max(1, after.workers);
  if (wall_seconds <= 0) return 0;
  return (after.busy_seconds - before.busy_seconds) /
         (wall_seconds * static_cast<double>(workers));
}

std::string host_json() {
  const mtsr::Topology& topo = mtsr::Topology::instance();
  std::string out = "{\"host\": {";
  out += "\"cpus\": " + std::to_string(topo.cpu_count());
  out += ", \"numa_nodes\": " + std::to_string(topo.node_count());
  out += ", \"pool_workers\": " + std::to_string(mtsr::num_threads());
  out += ", \"pool_shards\": " + std::to_string(mtsr::num_shards());
  out += ", \"gemm_f32\": \"" + std::string(mtsr::matmul_kernel_name()) + "\"";
  out += ", \"gemm_u8s8\": \"" + std::string(mtsr::gemm_u8s8_kernel_name()) +
         "\"";
  out += "}}";
  return out;
}

bool all_finite(const mtsr::Tensor& t) {
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

bool bitwise_equal(const mtsr::Tensor& a, const mtsr::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

double max_relative_error(const mtsr::Tensor& a, const mtsr::Tensor& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<double>::infinity();
  double diff = 0, scale = 0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::fabs(a.data()[i] -
                                                        b.data()[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(b.data()[i])));
  }
  return diff / std::max(scale, 1e-30);
}

mtsr::core::PipelineConfig pipeline_config(std::uint64_t seed) {
  mtsr::core::PipelineConfig config;
  config.instance = mtsr::data::MtsrInstance::kUp4;
  config.window = 20;
  config.temporal_length = 3;
  config.stitch_stride = 10;
  config.zipnet.base_channels = 4;
  config.zipnet.zipper_modules = 4;
  config.zipnet.zipper_channels = 16;
  config.zipnet.final_channels = 12;
  config.discriminator.base_channels = 4;
  config.trainer.batch_size = 8;
  config.trainer.learning_rate = 2e-3f;
  config.trainer.adversarial_learning_rate = 1e-4f;
  config.seed = seed;
  return config;
}

mtsr::data::TrafficDataset make_city(std::int64_t rows, std::int64_t cols,
                                     std::int64_t frames,
                                     std::int64_t hotspots,
                                     std::uint64_t seed) {
  mtsr::data::MilanConfig config;
  config.rows = rows;
  config.cols = cols;
  config.num_hotspots = hotspots;
  config.seed = seed;
  mtsr::data::MilanTrafficGenerator generator(config);
  return mtsr::data::TrafficDataset(generator.generate(0, frames),
                                    config.interval_minutes);
}

std::vector<std::size_t> frame_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  mtsr::Rng rng(seed);
  rng.shuffle(order);
  return order;
}

double TraceToggle::untraced_median() const { return median(untraced_); }

double TraceToggle::overhead() const {
  if (traced_.empty() || untraced_.empty()) return 0;
  const double base = median(untraced_);
  return base > 0 ? median(traced_) / base - 1.0 : 0;
}

}  // namespace perfbench
