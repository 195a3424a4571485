// Pins the §III-C QoS invariant over a full protocol run: priority is a
// function of the message, so the transport's kLow count must equal the
// number of TelemetryData sends (the historical Release bug sent control
// traffic at kLow), and the run must cover all ten message kinds.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "obs/metrics.hpp"
#include "telemetry/agent.hpp"

namespace dust::core {
namespace {

// One run that exercises every message type of the §III-B flow: handshake,
// STATs, placement (request/ack/transfer), telemetry, keepalives, a
// destination death (REP), and a load drop (Release).
TEST(MessagePriority, EveryEnvelopeMatchesMessagePriorityAndKind) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  registry.reset();
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(7));

  net::NetworkState state(graph::make_ring(5));
  for (graph::NodeId v = 0; v < 5; ++v) {
    state.set_node_utilization(v, 70.0);
    state.set_monitoring_data_mb(v, 10.0);
  }
  ManagerConfig config;
  config.update_interval_ms = 1000;
  config.placement_period_ms = 5000;
  config.keepalive_timeout_ms = 4000;
  config.keepalive_check_period_ms = 1000;
  DustManager manager(sim, transport, Nmdb(std::move(state), Thresholds{}),
                      config);
  std::vector<std::unique_ptr<DustClient>> clients;
  for (graph::NodeId v = 0; v < 5; ++v) {
    clients.push_back(std::make_unique<DustClient>(
        sim, transport, v, ClientConfig{.keepalive_interval_ms = 1000},
        util::Rng(100 + v)));
    clients.back()->set_reported_state(70.0, 10.0, 10);
    clients.back()->start();
  }
  manager.start();

  clients[0]->set_reported_state(90.0, 10.0, 10);  // busy
  clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate (nearest)
  clients[2]->set_reported_state(40.0, 5.0, 10);   // replica candidate
  sim.run_until(10000);
  ASSERT_GE(manager.active_offload_count(), 1u);
  const graph::NodeId first_dest = manager.active_offloads()[0].destination;

  // Offloaded monitoring data flows destination-ward at kLow.
  clients[0]->publish_snapshot(telemetry::DeviceSnapshot{});

  // Kill the destination -> keepalive loss -> REP substitution.
  clients[first_dest]->set_failed(true);
  sim.run_until(30000);
  EXPECT_GE(manager.keepalive_failures(), 1u);

  // Load drops far below Cmax -> Release.
  clients[0]->set_reported_state(30.0, 10.0, 0);
  sim.run_until(45000);
  EXPECT_GE(manager.releases(), 1u);

  // The run must actually have exercised the whole §III-B vocabulary —
  // otherwise the kLow count below proves nothing about the missing kinds.
  // Every send site bumps dust_core_tx_<kind>_total once per message.
  std::uint64_t tallied = 0;
  for (const char* kind :
       {"offload_capable", "ack", "stat", "offload_request", "offload_ack",
        "agent_transfer", "telemetry_data", "keepalive", "rep", "release"}) {
    const std::uint64_t sent =
        registry.counter(std::string("dust_core_tx_") + kind + "_total")
            .value();
    EXPECT_GT(sent, 0u) << "flow never sent a " << kind << " message";
    tallied += sent;
  }
  EXPECT_EQ(tallied, transport.sent());

  // Exactly the TelemetryData sends rode kLow: no control message did.
  EXPECT_EQ(registry.counter("dust_sim_transport_sent_low_total").value(),
            registry.counter("dust_core_tx_telemetry_data_total").value());
}

}  // namespace
}  // namespace dust::core
