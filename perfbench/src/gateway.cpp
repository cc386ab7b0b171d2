// Workload `gateway`: many small requests through the network front door.
//
// Sixteen wire sessions on ONE loopback connection to an in-process
// net::Server. The grids are 40x40 tiles (9 windows per frame) of one
// 80x160 city, so every session shares one normalisation. There are 8
// stream-tagged feeds with 2 fan-out consumers each; which session reads
// which feed derives from the seed. Closed loop per feed: a feed sends its
// next interval to both consumers only after both replies arrived, so
// consumers stay on one history (dedup can hit) and at most 16 pushes wait
// in the admission queue.
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/common/rng.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/tensor/tensor_ops.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mtsr::Tensor;
using Clock = std::chrono::steady_clock;

constexpr int kFeeds = 8;
constexpr int kConsumers = 2;
constexpr int kSessions = kFeeds * kConsumers;
constexpr std::int64_t kTile = 40;
constexpr std::int64_t kFrames = 24;  // intervals cycled through
constexpr double kFloatFusionTolerance = 1e-4;  // as in the city workload
constexpr int kReplyTimeoutMs = 30000;
/// Responses per traced/untraced span of the traced run.
constexpr std::int64_t kTraceSpan = 64;

struct Gateway {
  Gateway() = default;
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  std::unique_ptr<mtsr::data::TrafficDataset> dataset;
  std::vector<std::vector<Tensor>> tiles;  ///< tiles[feed][frame]
  std::vector<std::size_t> order;
  std::unique_ptr<mtsr::core::MtsrPipeline> pipeline;
  std::shared_ptr<mtsr::serving::Model> model;
  std::unique_ptr<mtsr::serving::Engine> engine;
  std::unique_ptr<mtsr::net::Server> server;
  std::thread loop;
  std::unique_ptr<mtsr::net::Client> client;
  std::vector<std::int64_t> session;  ///< wire session id per slot
  std::vector<int> feed_of;           ///< feed read by each slot
  std::map<std::int64_t, int> slot_of;

  ~Gateway() {
    client.reset();
    if (server) server->stop();
    if (loop.joinable()) loop.join();
  }

  [[nodiscard]] const Tensor& frame(int feed, std::int64_t t) const {
    return tiles[static_cast<std::size_t>(feed)]
                [order[static_cast<std::size_t>(t % kFrames)]];
  }

  [[nodiscard]] mtsr::net::OpenRequest open_request(
      const std::string& stream) const {
    const auto& config = pipeline->config();
    mtsr::net::OpenRequest req;
    req.model = "zipnet";
    req.stream = stream;
    req.instance = static_cast<std::uint8_t>(config.instance);
    req.rows = kTile;
    req.cols = kTile;
    req.window = config.window;
    req.stitch_stride = config.stitch_stride;
    req.mean = dataset->stats().mean;
    req.stddev = dataset->stats().stddev;
    req.log_transform = dataset->log_transform();
    return req;
  }

  [[nodiscard]] mtsr::serving::SessionConfig session_config() const {
    const auto& config = pipeline->config();
    mtsr::serving::SessionConfig sc;
    sc.model = "zipnet";
    sc.instance = config.instance;
    sc.rows = kTile;
    sc.cols = kTile;
    sc.window = config.window;
    sc.stitch_stride = config.stitch_stride;
    sc.stats = dataset->stats();
    sc.log_transform = dataset->log_transform();
    return sc;
  }

  /// The single-session in-process reference for feed `feed` at `t`.
  [[nodiscard]] std::optional<Tensor> reference(mtsr::serving::Engine& ref,
                                                int feed,
                                                std::int64_t t) const {
    const auto id = ref.open_session(session_config());
    std::optional<Tensor> out;
    const std::int64_t s = pipeline->config().temporal_length;
    for (std::int64_t k = t - s + 1; k <= t; ++k) {
      out = ref.push(id, frame(feed, k));
    }
    ref.close_session(id);
    return out;
  }
};

/// Served alone in its dispatch round, a wire session must return exactly
/// the in-process single-session bits.
void check_single_session_wire(Gateway& g, Report& report) {
  const auto open = g.client->open(g.open_request(""));
  report.check(open.status == mtsr::net::Status::kOk, "wire parity OPEN");
  if (open.status != mtsr::net::Status::kOk) return;
  const std::int64_t s = g.pipeline->config().temporal_length;
  mtsr::net::PushResponse resp;
  for (std::int64_t t = 0; t < s; ++t) {
    resp = g.client->push(open.session, g.frame(0, t));
  }
  mtsr::serving::Engine ref;
  ref.register_model("zipnet", g.model);
  const auto expect = g.reference(ref, 0, s - 1);
  report.check(resp.status == mtsr::net::Status::kOk && expect &&
                   bitwise_equal(resp.frame, *expect),
               "single-session wire frame bitwise equal to in-process");
  (void)g.client->close_session(open.session);
}

std::unique_ptr<Gateway> build_gateway(const Options& options,
                                       const std::shared_ptr<ModelProbe>& probe,
                                       Report& report) {
  auto g = std::make_unique<Gateway>();
  // Each input (city, frame order, weights, ...) draws its own stream.
  const auto seed = [&](std::uint64_t key) {
    return mtsr::Rng::derive_stream_seed(options.seed, key);
  };
  g->dataset = std::make_unique<mtsr::data::TrafficDataset>(make_city(
      2 * kTile, 4 * kTile, kFrames, 40, seed(11)));
  g->tiles.resize(kFeeds);
  for (int f = 0; f < kFeeds; ++f) {
    const std::int64_t r0 = (f / 4) * kTile, c0 = (f % 4) * kTile;
    for (std::int64_t t = 0; t < kFrames; ++t) {
      g->tiles[static_cast<std::size_t>(f)].push_back(
          mtsr::crop2d(g->dataset->frame(t), r0, c0, kTile, kTile));
    }
  }
  g->order = frame_order(kFrames, seed(12));
  g->pipeline = std::make_unique<mtsr::core::MtsrPipeline>(
      pipeline_config(seed(13)), *g->dataset);
  g->model =
      std::make_shared<mtsr::serving::ZipNetModel>(g->pipeline->generator());
  g->engine = std::make_unique<mtsr::serving::Engine>();
  g->engine->register_model("zipnet", maybe_traced(g->model, probe, false));
  g->server = std::make_unique<mtsr::net::Server>(*g->engine,
                                                  mtsr::net::ServerConfig{});
  g->loop = std::thread([server = g->server.get()] { server->run(); });
  g->client = std::make_unique<mtsr::net::Client>("127.0.0.1",
                                                  g->server->port());
  check_single_session_wire(*g, report);

  // Fan-out assignment: a seed-derived permutation pairs slots into feeds.
  const auto perm = frame_order(kSessions, seed(14));
  for (int slot = 0; slot < kSessions; ++slot) {
    const int feed = static_cast<int>(perm[static_cast<std::size_t>(slot)]) /
                     kConsumers;
    const auto open =
        g->client->open(g->open_request("feed-" + std::to_string(feed)));
    if (open.status != mtsr::net::Status::kOk) {
      throw std::runtime_error("gateway OPEN failed: " + open.error);
    }
    g->session.push_back(open.session);
    g->feed_of.push_back(feed);
    g->slot_of[open.session] = slot;
  }
  // Warm-up: fill every history and serve one full round.
  const std::int64_t s = g->pipeline->config().temporal_length;
  for (std::int64_t t = 0; t < s; ++t) {
    for (std::size_t slot = 0; slot < kSessions; ++slot) {
      g->client->send_push(g->session[slot], g->frame(g->feed_of[slot], t));
    }
    for (int i = 0; i < kSessions; ++i) {
      if (!g->client->poll_push(kReplyTimeoutMs)) {
        throw std::runtime_error("gateway warm-up reply timed out");
      }
    }
  }
  return g;
}

/// A served frame kept for the reference check.
struct Sample {
  int feed = 0;
  std::int64_t t = 0;
  Tensor frame;
};

}  // namespace

Report run_gateway(const Options& options) {
  Report report;
  const auto probe =
      options.trace ? std::make_shared<ModelProbe>() : nullptr;

  SetupSampler<Gateway> setups(
      options, [&] { return build_gateway(options, probe, report); });
  const auto g = setups.first_state();

  const std::int64_t s_len = g->pipeline->config().temporal_length;
  std::vector<std::int64_t> next_t(kFeeds, s_len);  // interval to send next
  std::vector<int> pending(kFeeds, 0);
  std::vector<Clock::time_point> sent_at(kSessions);
  // The first consumer reply of each feed's current interval, for the
  // fan-out comparison.
  std::vector<std::optional<Tensor>> first_reply(kFeeds);
  std::vector<Sample> first_samples, last_samples(kFeeds);
  std::vector<double> latency_ms;
  TraceToggle toggle(options.trace);  // one toggle step per span
  double traced_wall_ms = 0;
  std::int64_t traced_frames = 0, served = 0;

  const auto send_feed = [&](int feed) {
    const auto f = static_cast<std::size_t>(feed);
    for (std::size_t slot = 0; slot < kSessions; ++slot) {
      if (g->feed_of[slot] != feed) continue;
      sent_at[slot] = Clock::now();
      g->client->send_push(g->session[slot], g->frame(feed, next_t[f]));
      ++pending[f];
    }
  };

  const EngineSnapshot before = engine_snapshot(*g->engine);
  const PoolSnapshot pool_before = pool_snapshot();
  bool traced = toggle.next();
  if (probe) probe->set_enabled(traced);
  Clock::time_point span_start = Clock::now();
  // The phase runs as kSegments closed-loop segments: at a segment's end
  // each feed stops sending, and once every reply is in, the next segment
  // starts from a safe point for a set-up.
  constexpr int kSegments = SetupSampler<Gateway>::kSetups;
  bool timed_out = false;
  for (int segment = 1; segment <= kSegments && !timed_out; ++segment) {
    const double segment_end = options.seconds * segment / kSegments;
    for (int f = 0; f < kFeeds; ++f) send_feed(f);
    int open_feeds = kFeeds;
    while (open_feeds > 0) {
      const auto resp = g->client->poll_push(kReplyTimeoutMs);
      if (!resp) {
        report.op(false, "gateway reply timed out");
        timed_out = true;
        break;
      }
      const auto slot_it = g->slot_of.find(resp->session);
      if (slot_it == g->slot_of.end()) {
        report.op(false, "gateway reply for an unknown session");
        continue;
      }
      const auto slot = static_cast<std::size_t>(slot_it->second);
      const auto fs = static_cast<std::size_t>(g->feed_of[slot]);
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - sent_at[slot])
                            .count();
      latency_ms.push_back(ms);
      toggle.record(traced, ms);

      const bool ok = resp->status == mtsr::net::Status::kOk &&
                      all_finite(resp->frame);
      report.op(ok, "gateway PUSH did not return a finite frame");
      if (ok) {
        ++served;
        const std::int64_t t = next_t[fs];
        if (!first_reply[fs]) {
          first_reply[fs] = resp->frame;
          if (t == s_len) {
            first_samples.push_back({static_cast<int>(fs), t, resp->frame});
          }
          last_samples[fs] = {static_cast<int>(fs), t, resp->frame};
        } else {
          report.check(bitwise_equal(*first_reply[fs], resp->frame),
                       "fan-out consumers of feed " + std::to_string(fs) +
                           " bitwise equal");
        }
      }

      // Trace spans switch on response counts.
      if (options.trace && static_cast<std::int64_t>(latency_ms.size()) %
                                   kTraceSpan == 0) {
        const double span_ms = std::chrono::duration<double, std::milli>(
                                   Clock::now() - span_start)
                                   .count();
        if (traced) {
          traced_wall_ms += span_ms;
          traced_frames += kTraceSpan;
        }
        traced = toggle.next();
        if (probe) probe->set_enabled(traced);
        span_start = Clock::now();
      }

      if (--pending[fs] == 0) {
        first_reply[fs].reset();
        ++next_t[fs];
        if (setups.phase_seconds() < segment_end) {
          send_feed(static_cast<int>(fs));
        } else {
          --open_feeds;
        }
      }
    }
    setups.at_safe_point();
  }
  const double wall_s = setups.phase_seconds();
  if (probe) probe->set_enabled(false);
  const PoolSnapshot pool_after = pool_snapshot();
  const EngineSnapshot after = engine_snapshot(*g->engine);
  const mtsr::serving::FrontDoorStats door = g->server->front_door_stats();

  if (options.inject_failure) {
    // A PUSH to a session that was never opened must come back as an error.
    const auto resp = g->client->push(-1, g->frame(0, 0));
    report.op(resp.status == mtsr::net::Status::kOk,
              "PUSH to an unknown session");
  }

  setups.report(report);
  report.set("items_per_s", static_cast<double>(served) / wall_s);
  report.set("latency_p50_ms", quantile(latency_ms, 0.5));
  report.set("latency_p90_ms", quantile(latency_ms, 0.9));
  std::cerr << "perfbench gateway: " << latency_ms.size() << " pushes in "
            << wall_s << " s\n";

  {
    mtsr::serving::Engine ref;
    ref.register_model("zipnet", g->model);
    std::vector<Sample> samples = first_samples;
    samples.insert(samples.end(), last_samples.begin(), last_samples.end());
    double worst = 0;
    for (const Sample& sample : samples) {
      if (sample.frame.empty()) continue;  // the feed never replied
      const auto expect = g->reference(ref, sample.feed, sample.t);
      const double err = expect ? max_relative_error(sample.frame, *expect)
                                : 1.0;
      worst = std::max(worst, err);
      report.check(err <= kFloatFusionTolerance,
                   "gateway feed " + std::to_string(sample.feed) +
                       " within tolerance of in-process reference");
    }
    std::cerr << "perfbench gateway: worst float fusion error " << worst
              << " (tolerance " << kFloatFusionTolerance << ")\n";
  }

  if (options.trace) {
    report_serving_layers(report, probe->totals(), traced_wall_ms,
                          traced_frames, before, after);
    report.set("pool.utilization",
               pool_utilization(pool_before, pool_after, wall_s));
    report.set("net.server_p50_ms", door.p50_ms);
    report.set("net.server_p99_ms", door.p99_ms);
    report.set("net.client_wait_p50_ms",
               quantile(latency_ms, 0.5) - door.p50_ms);
    report.set("net.latency_p99_ms", quantile(latency_ms, 0.99));
    report.set("net.max_queue_depth",
               static_cast<double>(door.max_queue_depth));
    report.set("net.rejected", static_cast<double>(door.rejected));
    report.set("trace.overhead", toggle.overhead());
  }
  return report;
}

}  // namespace perfbench
