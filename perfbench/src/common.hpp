// Shared scaffolding of the perfbench binary: run options, the metric
// catalogue, per-run reports, sample statistics and the outside-in probes
// (pool busy time, host facts) every workload uses.
//
// Every number is measured from outside the library: wall clocks around
// calls into public functions, plus deltas of the telemetry the library
// already exports (Engine::stats, Server::front_door_stats,
// Trainer::stats, pool_shard_stats). Nothing under src/ is instrumented.
#pragma once
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stopwatch.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/dataset.hpp"
#include "src/tensor/tensor.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< length of the timed phase
  bool trace = false;    ///< per-layer (traced) run instead of end-to-end
  bool short_mode = false;      ///< one set-up, fewer sampled checks
  bool inject_failure = false;  ///< one deliberately failing operation
  std::string work_dir;  ///< checkpoint files live here (required)
};

/// One metric the benchmark prints: name, unit and which run prints it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of the untraced run (every workload prints all of them).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of the traced run (every workload prints all of them; a layer a
/// workload does not exercise reads 0).
const std::vector<MetricSpec>& per_layer_metrics();

/// What one workload run produced.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const;

  /// Counts one operation; a failed one is logged to stderr.
  void op(bool ok, const std::string& what = "");
  /// An output check: counts as an operation and, when it fails, marks the
  /// whole run incorrect.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the metrics of `specs`.
  [[nodiscard]] std::string json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(const std::vector<double>& samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Summed busy worker-seconds and worker slots across every pool shard.
struct PoolSnapshot {
  double busy_seconds = 0;
  int workers = 0;
};
[[nodiscard]] PoolSnapshot pool_snapshot();
/// Busy share of the pool between two snapshots over `wall_seconds`.
[[nodiscard]] double pool_utilization(const PoolSnapshot& before,
                                      const PoolSnapshot& after,
                                      double wall_seconds);

/// The host facts the numbers depend on, as one JSON object.
[[nodiscard]] std::string host_json();

/// True when every element is finite.
[[nodiscard]] bool all_finite(const mtsr::Tensor& t);
/// True when the tensors have the same shape and identical bits.
[[nodiscard]] bool bitwise_equal(const mtsr::Tensor& a, const mtsr::Tensor& b);
/// max |a - b| / max(max |b|, tiny); infinity on a shape mismatch.
[[nodiscard]] double max_relative_error(const mtsr::Tensor& a,
                                        const mtsr::Tensor& b);

/// Alternates traced and untraced spans of a timed phase and compares the
/// end-to-end figure of the two halves (trace.overhead).
class TraceToggle {
 public:
  explicit TraceToggle(bool enabled) : enabled_(enabled) {}
  /// Whether the next operation runs traced: every other one when tracing,
  /// never otherwise.
  [[nodiscard]] bool next() { return enabled_ && count_++ % 2 == 1; }
  void record(bool traced, double ms) {
    (traced ? traced_ : untraced_).push_back(ms);
  }
  [[nodiscard]] double untraced_median() const;
  /// median(traced) / median(untraced) - 1; 0 without samples on a side.
  [[nodiscard]] double overhead() const;

 private:
  bool enabled_;
  std::int64_t count_ = 0;
  std::vector<double> traced_, untraced_;
};

/// Times a workload's set-up and keeps the timed phase's clock.
///
/// The host's speed changes from one second to the next, so set-ups timed
/// back to back land in one speed state, and their median spreads from run
/// to run far more than the timed metrics, which average over the whole
/// phase. An untraced run therefore times one set-up before the timed
/// phase and kSetups - 1 more spread over it, each at the first safe point
/// (no operation in flight) after the next kSetups-th of the phase, and
/// reports their median as setup_s. The phase clock leaves out the time
/// those set-ups take. Traced runs, which do not print setup_s, and short
/// runs time only the set-up before the phase.
template <typename State>
class SetupSampler {
 public:
  static constexpr int kSetups = 9;
  using Build = std::function<std::unique_ptr<State>()>;

  SetupSampler(const Options& options, Build build)
      : options_(options), build_(std::move(build)) {}

  /// The state the run uses: one untimed cold build, which pays for first
  /// touches (pool threads, allocator growth, code pages), then a timed
  /// one. Starts the phase clock.
  [[nodiscard]] std::unique_ptr<State> first_state() {
    if (!options_.short_mode) (void)build_();
    auto state = timed_build();
    wall_.reset();
    return state;
  }

  /// Seconds of the timed phase so far, set-ups inside it left out.
  [[nodiscard]] double phase_seconds() const {
    return wall_.seconds() - paused_;
  }

  /// Called between timed operations, with none in flight: times one more
  /// set-up (and discards its state) when the phase has passed its next
  /// mark.
  void at_safe_point() {
    const auto n = static_cast<int>(seconds_.size());
    if (options_.trace || options_.short_mode || n >= kSetups) return;
    if (phase_seconds() < options_.seconds * n / kSetups) return;
    mtsr::Stopwatch sw;
    (void)timed_build();
    paused_ += sw.seconds();
  }

  void report(Report& report) const {
    report.set("setup_s", median(seconds_));
    std::cerr << "perfbench: set-up seconds";
    for (const double s : seconds_) std::cerr << " " << s;
    std::cerr << "\n";
  }

 private:
  std::unique_ptr<State> timed_build() {
    mtsr::Stopwatch sw;
    auto state = build_();
    seconds_.push_back(sw.seconds());
    return state;
  }

  const Options& options_;
  Build build_;
  std::vector<double> seconds_;
  mtsr::Stopwatch wall_;
  double paused_ = 0;
};

/// The serving generator's geometry in every workload: up-4, window 20,
/// S = 3, the CPU-scale widths of the repository's benches. Weights are
/// untrained (serving cost does not depend on them) and seeded from `seed`.
[[nodiscard]] mtsr::core::PipelineConfig pipeline_config(std::uint64_t seed);

/// A synthetic city of rows x cols cells and `frames` consecutive
/// intervals; its train split gives the one normalisation every stream cut
/// from it shares.
[[nodiscard]] mtsr::data::TrafficDataset make_city(std::int64_t rows,
                                                   std::int64_t cols,
                                                   std::int64_t frames,
                                                   std::int64_t hotspots,
                                                   std::uint64_t seed);

/// A seed-derived permutation of [0, n): the order frames are fed in.
[[nodiscard]] std::vector<std::size_t> frame_order(std::size_t n,
                                                   std::uint64_t seed);

using Runner = Report (*)(const Options&);
Report run_city(const Options& options);
Report run_gateway(const Options& options);
Report run_train(const Options& options);
Report run_learn(const Options& options);

}  // namespace perfbench
