// stream-loopback: the data plane alone. One BlockStreamer ships 64
// utilization-shaped series through a leaf SocketTransport, over one
// loopback TCP link, to a hub and a Collector — seal → Gorilla encode →
// frame → socket → reassemble → verify. One thread drives both ends.
//
// Open loop: 500 000 samples/s offered on a wall-clock schedule of 1 ms
// ticks; the 500 appends due in a tick are issued together, however late
// the tick runs. Block latency runs from the due time of the tick whose
// append filled a block to the collector holding that block verified
// (its series' last() reaching the block's final timestamp).
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "dataplane/block_streamer.hpp"
#include "dataplane/collector.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"
#include "wire/socket_transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dust;

constexpr std::size_t kSeries = 64;
constexpr std::size_t kSamplesPerTick = 500;  ///< 500 000 samples/s
constexpr std::int64_t kTickNs = 1'000'000;
constexpr std::size_t kBlockSamples = 1024;   ///< TimeSeries default
/// Series s starts with s * kPhaseStep samples appended at set-up, so block
/// boundaries are spread evenly over time instead of all 64 series sealing
/// in the same tick.
constexpr std::size_t kPhaseStep = kBlockSamples / kSeries;
constexpr std::int64_t kSampleStepMs = 100;   ///< series timestamps, 10 Hz
constexpr std::size_t kSetups = 8;
constexpr int kMaxPollRounds = 64;  ///< leaf+hub poll pairs per tick, at most
constexpr graph::NodeId kOwner = 1;
constexpr const char* kStreamerEndpoint = "dust-streamer-1";
constexpr const char* kCollectorEndpoint = "dust-collector";

std::string series_name(std::size_t s) {
  std::string name = "s";  // appended, not `"s" + ...`: GCC 12 warns falsely on that
  name += std::to_string(s);
  return name;
}
/// The collector files series s of kOwner under this name.
std::string collector_name(std::size_t s) {
  return "node" + std::to_string(kOwner) + "/" + series_name(s);
}
std::int64_t timestamp(std::size_t i) { return static_cast<std::int64_t>(i + 1) * kSampleStepMs; }

/// Utilization-shaped values: a bounded random walk at 0.1% resolution.
std::vector<std::vector<double>> make_values(std::uint64_t seed, std::size_t per_series) {
  std::vector<std::vector<double>> values(kSeries);
  for (std::size_t s = 0; s < kSeries; ++s) {
    util::Rng rng = util::Rng(seed).fork(s);
    double level = rng.uniform(20.0, 80.0);
    values[s].reserve(per_series);
    for (std::size_t k = 0; k < per_series; ++k) {
      level = std::clamp(level + rng.uniform(-0.5, 0.5), 0.0, 100.0);
      values[s].push_back(std::round(level * 10.0) / 10.0);
    }
  }
  return values;
}

wire::SocketTransportConfig hub_config() {
  wire::SocketTransportConfig config;
  config.role = wire::SocketTransportConfig::Role::kHub;
  return config;
}

wire::SocketTransportConfig leaf_config(std::uint16_t port) {
  wire::SocketTransportConfig config;
  config.role = wire::SocketTransportConfig::Role::kLeaf;
  config.port = port;
  return config;
}

dataplane::BlockStreamerConfig streamer_config() {
  dataplane::BlockStreamerConfig config;
  config.owner = kOwner;
  config.local_endpoint = kStreamerEndpoint;
  config.collector = kCollectorEndpoint;
  return config;
}

/// Everything one run streams through: inputs, both transport ends, the
/// streamer's TSDB and the collector.
struct Pipeline {
  Pipeline(std::uint64_t seed, std::size_t per_series)
      : values(make_values(seed, per_series)),
        hub(hub_config()),
        leaf(leaf_config(hub.listen_port())),
        collector(hub, kCollectorEndpoint),
        streamer(leaf, tsdb, streamer_config()) {
    leaf.register_endpoint(kStreamerEndpoint, [](const sim::Envelope&) {});
    for (std::size_t s = 0; s < kSeries; ++s)
      metrics.push_back(tsdb.register_metric(telemetry::MetricDescriptor{
          series_name(s), "%", telemetry::MetricKind::kGauge}));
    for (std::size_t s = 0; s < kSeries; ++s)
      for (std::size_t i = 0; i < s * kPhaseStep; ++i)
        tsdb.append(metrics[s], telemetry::Sample{timestamp(i), values[s][i]});
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (!leaf.connected() || hub.peer_count() == 0) {
      if (now_ns() > deadline) throw std::runtime_error("loopback link did not come up");
      leaf.poll_once(1);
      hub.poll_once(1);
    }
  }

  std::vector<std::vector<double>> values;
  wire::SocketTransport hub;
  wire::SocketTransport leaf;
  dataplane::Collector collector;
  telemetry::Tsdb tsdb;
  dataplane::BlockStreamer streamer;  ///< holds `leaf` and `tsdb`
  std::vector<telemetry::MetricId> metrics;
};

/// Blocks filled but not yet seen verified at the collector, per series.
struct FillTracker {
  struct Fill {
    std::int64_t last_ts = 0;  ///< final sample timestamp of the block
    std::int64_t due_ns = 0;   ///< due time of the tick that filled it
  };
  std::vector<std::deque<Fill>> pending = std::vector<std::deque<Fill>>(kSeries);
  std::vector<std::optional<telemetry::MetricId>> collector_id =
      std::vector<std::optional<telemetry::MetricId>>(kSeries);
  std::vector<double> latency_ms;

  void poll(const dataplane::Collector& collector) {
    const std::int64_t now = now_ns();
    for (std::size_t s = 0; s < kSeries; ++s) {
      if (pending[s].empty()) continue;
      if (!collector_id[s]) {
        collector_id[s] = collector.tsdb().find(collector_name(s));
        if (!collector_id[s]) continue;
      }
      const std::optional<telemetry::Sample> last = collector.tsdb().series(*collector_id[s]).last();
      while (last && !pending[s].empty() && pending[s].front().last_ts <= last->timestamp_ms) {
        latency_ms.push_back(static_cast<double>(now - pending[s].front().due_ns) / 1e6);
        pending[s].pop_front();
      }
    }
  }
};

}  // namespace

void run_stream_loopback(const Options& options, Report& report) {
  const auto ticks = static_cast<std::size_t>(options.seconds * 1e9 / static_cast<double>(kTickNs));
  const std::size_t offered = ticks * kSamplesPerTick;
  const std::size_t prefilled = kPhaseStep * kSeries * (kSeries - 1) / 2;
  const std::size_t per_series = (offered + kSeries - 1) / kSeries + kBlockSamples;

  // Set-up: the inputs, both transport ends and the loopback link. On a
  // shared host its speed drifts over seconds, so it is timed kSetups times,
  // half before the open loop and half after it; the last one before runs.
  EndToEnd e2e;
  auto set_up = [&] {
    const std::int64_t start = now_ns();
    auto fresh = std::make_unique<Pipeline>(options.seed, per_series);
    e2e.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    return fresh;
  };
  for (std::size_t i = 1; i < kSetups / 2; ++i) set_up();
  std::unique_ptr<Pipeline> pipe = set_up();

  Tracer tracer;
  FillTracker fills;
  std::vector<double> lateness_ms;
  std::vector<double> tick_ms[2];
  double queue_fill_max = 0.0;

  // Traced runs trace every other tick; the untraced ticks price tracing.
  const double cpu0 = process_cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::size_t next = 0;  // global sample index: series next % 64
  for (std::size_t k = 0; k < ticks; ++k) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(k) * kTickNs;
    if (now_ns() < due)
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
    const std::int64_t start = now_ns();
    lateness_ms.push_back(static_cast<double>(start - due) / 1e6);
    const bool traced = options.trace && k % 2 == 1;
    tracer.set_active(traced);
    {
      Scope root(tracer, "bench.step");
      {
        Scope span(tracer, "telemetry.append");
        for (const std::size_t end = next + kSamplesPerTick; next < end; ++next) {
          const std::size_t s = next % kSeries;
          const std::size_t i = s * kPhaseStep + next / kSeries;
          const std::int64_t ts = timestamp(i);
          pipe->tsdb.append(pipe->metrics[s], telemetry::Sample{ts, pipe->values[s][i]});
          if (i % kBlockSamples == kBlockSamples - 1) fills.pending[s].push_back({ts, due});
        }
      }
      {
        Scope span(tracer, "dataplane.pump");
        pipe->streamer.pump();
      }
      // Drive both ends until the collector holds every shipped sample, as
      // two processes blocked in poll() would; bounded so a stalled link
      // shows up as lateness rather than a hang.
      for (int round = 0; round < kMaxPollRounds; ++round) {
        {
          Scope span(tracer, "wire.leaf_poll");
          pipe->leaf.poll_once(0);
        }
        {
          Scope span(tracer, "wire.hub_poll");
          pipe->hub.poll_once(0);
        }
        if (pipe->collector.stats().samples >= pipe->streamer.stats().samples_sent) break;
      }
      fills.poll(pipe->collector);
      queue_fill_max = std::max(queue_fill_max, pipe->leaf.queue_state(kCollectorEndpoint).fill());
    }
    tracer.set_active(false);
    tick_ms[traced].push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  // Verified samples beyond the set-up prefill (which rides in the first
  // block of each series).
  auto offered_part = [&](std::uint64_t verified) -> std::uint64_t {
    return verified > prefilled ? verified - prefilled : 0;
  };
  e2e.cpu_s = process_cpu_seconds() - cpu0;
  e2e.steps = ticks;
  const std::uint64_t window_verified = offered_part(pipe->collector.stats().samples);

  // Drain: seal the tails and wait until the collector holds everything.
  pipe->streamer.flush();
  const std::int64_t drain_deadline = now_ns() + 20'000'000'000;
  while (pipe->collector.stats().samples < pipe->streamer.stats().samples_sent &&
         now_ns() < drain_deadline) {
    pipe->leaf.poll_once(1);
    pipe->hub.poll_once(1);
    pipe->streamer.pump();
  }

  report.check(pipe->collector.loss_fully_declared(), "collector saw undeclared loss");
  report.check(pipe->collector.stats().verify_failures == 0, "blocks failed verification");
  const std::uint64_t delivered = offered_part(pipe->collector.stats().samples);
  report.check(delivered == offered, "collector verified " + std::to_string(delivered) +
                                         " of " + std::to_string(offered) + " offered samples");
  // Content: every series arrived sample for sample.
  std::size_t mismatched = 0;
  for (std::size_t s = 0; s < kSeries; ++s) {
    const std::optional<telemetry::MetricId> id = pipe->collector.tsdb().find(collector_name(s));
    const std::size_t expect =
        s * kPhaseStep + offered / kSeries + (s < offered % kSeries ? 1 : 0);
    const std::vector<telemetry::Sample> samples =
        id ? pipe->collector.tsdb().series(*id).query(0, std::numeric_limits<std::int64_t>::max())
           : std::vector<telemetry::Sample>{};
    if (samples.size() != expect) {
      ++mismatched;
      continue;
    }
    for (std::size_t i = 0; i < expect; ++i)
      if (samples[i].timestamp_ms != timestamp(i) ||
          samples[i].value != pipe->values[s][i]) {
        ++mismatched;
        break;
      }
  }
  report.check(mismatched == 0, std::to_string(mismatched) + " series differ from what was sent");
  const dataplane::StreamerStats sent = pipe->streamer.stats();
  const dataplane::CollectorStats got = pipe->collector.stats();
  pipe.reset();
  while (e2e.setup_s.size() < kSetups) set_up();
  report.attempt(offered, delivered < offered ? offered - delivered : 0);

  report.info("ticks", static_cast<double>(ticks));
  report.info("samples_offered", static_cast<double>(offered));
  report.info("blocks_timed", static_cast<double>(fills.latency_ms.size()));
  report.info("gen_lateness_ms_p50", percentile(lateness_ms, 0.50));
  report.info("gen_lateness_ms_p90", percentile(lateness_ms, 0.90));
  report.info("gen_lateness_ms_max", *std::max_element(lateness_ms.begin(), lateness_ms.end()));
  report.info("window_samples_per_s", static_cast<double>(window_verified) / options.seconds);
  report.info("cpu_ns_per_sample", e2e.cpu_s * 1e9 / static_cast<double>(offered));

  if (!options.trace) {
    e2e.latency_ms = std::move(fills.latency_ms);
    e2e.report(report);
    return;
  }

  const double batches = static_cast<double>(sent.batches_sent);
  Layers layers;
  layers.set("dataplane.blocks_per_frame", ratio(static_cast<double>(sent.blocks_sent), batches));
  layers.set("dataplane.bytes_per_frame", ratio(static_cast<double>(sent.payload_bytes_sent), batches));
  layers.set("dataplane.compression_ratio",
             ratio(16.0 * static_cast<double>(sent.samples_sent),
                   static_cast<double>(sent.payload_bytes_sent)));
  layers.set("dataplane.samples_thinned", static_cast<double>(sent.samples_thinned));
  layers.set("dataplane.batches_dropped", static_cast<double>(sent.batches_dropped));
  layers.set("dataplane.verify_failures", static_cast<double>(got.verify_failures));
  layers.set("dataplane.undeclared_gap_batches", static_cast<double>(got.undeclared_gap_batches));
  layers.set("wire.queue_fill_max", queue_fill_max);
  layers.report(report, tracer.spans(), tick_ms);
  tracer.write(options.trace_out);
}

}  // namespace perfbench
