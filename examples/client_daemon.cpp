// DUST-Clients as an OS process (DESIGN.md §11).
//
// Hosts one DustClient per node listed in --nodes, all sharing a single
// wire::SocketTransport leaf connected to the manager daemon's hub. Each
// client reports the load its node has in the scenario file (constant, like
// the protocol tests' scripted state), so a fleet of daemons reproduces the
// exact NMDB an in-process run of the same scenario would build.
//
//   ./build/examples/client_daemon --port N --nodes 0,1,2
//       [--scenario FILE] [--manager ENDPOINT] [--run-ms MS] [--die-at-ms MS]
//       [--stream] [--stream-samples N] [--stream-delay-ms MS]
//
// --manager points every hosted client at a non-default manager endpoint —
// in a federated fleet each shard's manager answers on
// "dust-manager-shard<s>" (DESIGN.md §16). When the hub link drops and
// comes back (e.g. a standby took over the shard's port), the transport's
// reconnect listener re-homes every client: fresh Offload-capable + STAT
// outrun any stale backlog, so the new primary rebuilds its domain view
// immediately.
//
// --die-at-ms exits the process abruptly (no teardown, sockets reset by the
// OS) to simulate a node crash: the manager sees keepalive loss and must
// substitute a replica destination.
//
// --stream turns the first listed node into a telemetry origin: a local
// TSDB is pre-filled with --stream-samples deterministic samples on each of
// two series, then drained through a dataplane::BlockStreamer toward the
// "dust-collector" endpoint (a collector_daemon leaf on the same hub). The
// flush waits --stream-delay-ms so the collector's announce has reached the
// hub before the first kDataBlocks frame needs a route.
//
// The process serves its MetricRegistry at "dust-obs-client-<first node>"
// (wire::ObsResponder), so a manager_daemon running the fleet observability
// plane scrapes it like any other node. Span ids are seeded per process so
// stitched fleet traces never collide.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/scenario.hpp"
#include "dataplane/block_streamer.hpp"
#include "obs/trace.hpp"
#include "telemetry/tsdb.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "wire/demo_scenario.hpp"
#include "wire/obs_scrape.hpp"
#include "wire/socket_transport.hpp"

namespace {

std::vector<dust::graph::NodeId> parse_nodes(const std::string& list) {
  std::vector<dust::graph::NodeId> nodes;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    nodes.push_back(static_cast<dust::graph::NodeId>(
        std::stoul(list.substr(pos, end - pos))));
    pos = end + 1;
  }
  return nodes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dust;
  util::init_log_level_from_env();
  std::uint16_t port = 0;
  std::string scenario_file;
  std::string manager_endpoint;
  std::vector<graph::NodeId> nodes;
  std::int64_t run_ms = 10000;
  std::int64_t die_at_ms = -1;
  bool stream = false;
  std::size_t stream_samples = 2000;
  std::int64_t stream_delay_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    } else if (arg == "--nodes" && i + 1 < argc) {
      nodes = parse_nodes(argv[++i]);
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_file = argv[++i];
    } else if (arg == "--manager" && i + 1 < argc) {
      manager_endpoint = argv[++i];
    } else if (arg == "--run-ms" && i + 1 < argc) {
      run_ms = std::stoll(argv[++i]);
    } else if (arg == "--die-at-ms" && i + 1 < argc) {
      die_at_ms = std::stoll(argv[++i]);
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--stream-samples" && i + 1 < argc) {
      stream_samples = std::stoul(argv[++i]);
    } else if (arg == "--stream-delay-ms" && i + 1 < argc) {
      stream_delay_ms = std::stoll(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " --port N --nodes 0,1,2 [--scenario FILE]"
                   " [--manager ENDPOINT] [--run-ms MS] [--die-at-ms MS]"
                   " [--stream] [--stream-samples N] [--stream-delay-ms MS]\n";
      return 2;
    }
  }
  if (port == 0 || nodes.empty()) {
    std::cerr << "client_daemon: --port and --nodes are required\n";
    return 2;
  }

  core::Nmdb nmdb = [&] {
    if (scenario_file.empty()) return wire::demo_nmdb();
    std::ifstream file(scenario_file);
    if (!file) {
      std::cerr << "cannot open " << scenario_file << "\n";
      std::exit(2);
    }
    return core::load_scenario(file);
  }();

  const std::string obs_node = "client-" + std::to_string(nodes.front());
  // Before any span allocation: this process's span ids must live in their
  // own block or stitched fleet traces would collide across daemons.
  obs::seed_span_ids(std::hash<std::string>{}(obs_node));

  sim::Simulator sim;
  wire::SocketTransportConfig wire_config;
  wire_config.role = wire::SocketTransportConfig::Role::kLeaf;
  wire_config.port = port;
  wire_config.now = [&sim] { return sim.now(); };
  wire::SocketTransport transport(wire_config);
  wire::ObsResponder obs_responder(transport, obs_node);

  std::vector<std::unique_ptr<core::DustClient>> clients;
  for (const graph::NodeId node : nodes) {
    if (node >= nmdb.node_count()) {
      std::cerr << "client_daemon: node " << node << " not in scenario\n";
      return 2;
    }
    core::ClientConfig config;
    config.offload_capable = nmdb.offload_capable(node);
    config.platform_factor = nmdb.platform_factor(node);
    config.keepalive_interval_ms = 300;
    if (!manager_endpoint.empty()) config.manager = manager_endpoint;
    clients.push_back(std::make_unique<core::DustClient>(
        sim, transport, node, config, util::Rng(100 + node)));
    clients.back()->set_reported_state(
        nmdb.network().node_utilization(node),
        nmdb.network().monitoring_data_mb(node),
        std::max<std::uint32_t>(1, nmdb.agent_count(node)));
    clients.back()->start();
  }

  // The hub link came back after dropping (manager restart or a standby
  // taking over the shard's port): re-home every client so the fresh
  // Offload-capable + STAT outrun whatever stale backlog flushes next.
  transport.set_reconnect_listener([&clients] {
    for (auto& client : clients) client->rehome();
  });

  // --stream: the first node doubles as a telemetry origin. Content is
  // deterministic (seeded by node id) so the harness knows the exact sample
  // count the collector must account for.
  telemetry::Tsdb tsdb;
  std::unique_ptr<dataplane::BlockStreamer> streamer;
  if (stream) {
    const graph::NodeId origin = nodes.front();
    util::Rng content_rng(500 + origin);
    std::vector<telemetry::MetricId> metrics;
    for (const char* name : {"device.cpu.percent", "device.rx.mbps"})
      metrics.push_back(tsdb.register_metric(telemetry::MetricDescriptor{
          name, "units", telemetry::MetricKind::kGauge}));
    double level = 50.0;
    for (std::size_t i = 0; i < stream_samples; ++i) {
      level += content_rng.uniform(-0.5, 0.5);
      for (std::size_t m = 0; m < metrics.size(); ++m)
        tsdb.append(metrics[m],
                    telemetry::Sample{static_cast<std::int64_t>(i) * 100,
                                      level + static_cast<double>(m)});
    }
    const std::string endpoint =
        "dust-streamer-" + std::to_string(origin);
    transport.register_endpoint(endpoint, [](const sim::Envelope&) {});
    dataplane::BlockStreamerConfig streamer_config;
    streamer_config.owner = origin;
    streamer_config.local_endpoint = endpoint;
    streamer = std::make_unique<dataplane::BlockStreamer>(transport, tsdb,
                                                          streamer_config);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_ms = [&t0] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  bool flushed = false;
  // The latest offload chain that reached any node of this daemon. The
  // streaming origin is often the busy node itself, which never hosts, so
  // its own host trace alone would leave the batches untraced.
  obs::TraceContext host_trace;
  std::vector<obs::TraceContext> seen_host_trace(clients.size());
  while (wall_ms() < run_ms) {
    if (die_at_ms >= 0 && wall_ms() >= die_at_ms) {
      // Crash, don't shut down: skip every destructor so the kernel resets
      // the connection mid-protocol, exactly like a dying device.
      std::_Exit(7);
    }
    if (streamer != nullptr && wall_ms() >= stream_delay_ms) {
      // Parent data-block batches under the latest offload chain that
      // reached this daemon, so collector ingest joins the same fleet trace.
      for (std::size_t c = 0; c < clients.size(); ++c) {
        const obs::TraceContext trace = clients[c]->last_host_trace();
        if (trace == seen_host_trace[c]) continue;
        seen_host_trace[c] = trace;
        host_trace = trace;
      }
      streamer->set_trace(host_trace);
      if (!flushed) {
        streamer->flush();
        flushed = true;
      } else {
        streamer->pump();
      }
    }
    transport.poll_once(5);
    sim.run_until(wall_ms());
  }
  return 0;
}
