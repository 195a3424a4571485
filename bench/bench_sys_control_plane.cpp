// System bench (beyond the paper's figures): control-plane behaviour of the
// full DUST protocol on a fat-tree — message volume per node per minute,
// placement-cycle latency, and convergence time from busy detection to
// acknowledged offload. These are the operational numbers a deployment
// would watch.
//
// Output: the table plus BENCH_control_plane.json (dust-bench-v1). The
// message counts and the busy -> acked time are sim-time quantities, a pure
// function of the seed; only the cycle wall times depend on the host.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/client.hpp"
#include "core/manager.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main() {
  using namespace dust;
  bench::print_header(
      "System — control-plane load and convergence (4-k fat-tree, 20 nodes)",
      "(not a paper figure; operational characteristics of the protocol)");

  const graph::FatTree topo(4);
  const std::size_t n = topo.graph().node_count();
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(bench::base_seed()));

  net::NetworkState state(topo.graph());
  for (graph::NodeId v = 0; v < n; ++v) {
    state.set_node_utilization(v, 50.0);
    state.set_monitoring_data_mb(v, 10.0);
  }
  core::ManagerConfig config;
  config.update_interval_ms = 10000;   // 10 s STATs
  config.placement_period_ms = 60000;  // 1 min cycles (enterprise-like)
  config.keepalive_timeout_ms = 30000;
  config.keepalive_check_period_ms = 10000;
  core::DustManager manager(sim, transport,
                            core::Nmdb(std::move(state), core::Thresholds{}),
                            config);
  std::vector<std::unique_ptr<core::DustClient>> clients;
  for (graph::NodeId v = 0; v < n; ++v) {
    clients.push_back(std::make_unique<core::DustClient>(
        sim, transport, v,
        core::ClientConfig{.keepalive_interval_ms = 10000},
        util::Rng(bench::base_seed() + v)));
    clients.back()->set_reported_state(50.0, 10.0, 10);
    clients.back()->start();
  }
  manager.start();

  // Steady state for 10 minutes.
  sim.run_until(10 * 60000);
  const std::uint64_t steady_msgs = transport.sent();

  // Overload event: node 0 goes busy; measure convergence to acked offload.
  clients[0]->set_reported_state(92.0, 10.0, 10);
  const sim::TimeMs busy_at = sim.now();
  sim::TimeMs acked_at = -1;
  while (sim.now() < busy_at + 10 * 60000) {
    sim.run_until(sim.now() + 1000);
    bool acked = false;
    for (const core::ActiveOffload& offload : manager.active_offloads())
      if (offload.busy == 0 && offload.acknowledged) acked = true;
    if (acked) {
      acked_at = sim.now();
      break;
    }
  }
  // Placement-cycle wall time on the live NMDB.
  util::RunningStats cycle_wall;
  for (int i = 0; i < 50; ++i) {
    util::Timer timer;
    manager.run_placement_cycle();
    cycle_wall.add(timer.millis());
  }

  const double msgs_per_node_minute =
      static_cast<double>(steady_msgs) / (10.0 * n);
  const double busy_to_acked_ms =
      acked_at >= 0 ? static_cast<double>(acked_at - busy_at) : -1.0;

  util::Table table("control-plane characteristics");
  table.set_precision(2).header({"metric", "value"});
  table.row({std::string("steady-state msgs/node/minute"),
             msgs_per_node_minute});
  table.row({std::string("transport deliveries"),
             static_cast<std::int64_t>(transport.delivered())});
  table.row({std::string("busy -> acked offload (sim ms)"), busy_to_acked_ms});
  table.row({std::string("placement cycle wall time (ms, mean)"),
             cycle_wall.mean()});
  table.row({std::string("placement cycle wall time (ms, max)"),
             cycle_wall.max()});
  bench::emit(table);

  bench::JsonReport report("control_plane");
  report.set_topology(n, topo.graph().edge_count());
  const std::string run_config = "topology=fat-tree-4,stat_ms=10000,"
                                 "placement_period_ms=60000";
  report.add("steady_msgs_per_node_minute", msgs_per_node_minute,
             "msgs/node/min", run_config);
  report.add("transport_deliveries",
             static_cast<double>(transport.delivered()), "count", run_config);
  report.add("busy_to_acked_sim_ms", busy_to_acked_ms, "sim-ms", run_config);
  report.add("cycle_wall_ms_mean", cycle_wall.mean(), "ms", run_config);
  report.add("cycle_wall_ms_max", cycle_wall.max(), "ms", run_config);
  report.write();

  std::cout << "\nexpectation: a few control messages per node per minute; "
               "convergence within one placement period (60 s sim time)\n";
  return 0;
}
