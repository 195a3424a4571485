// End-to-end protocol tests: DUST-Manager and DUST-Clients exchanging the
// §III-B message flow over the simulated transport — handshake, STATs,
// placement, agent transfer, keepalives, failure/replica (REP), release,
// and the §III-C QoS behaviour under congestion.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"

namespace dust::core {
namespace {

struct Harness {
  sim::Simulator sim;
  sim::Transport transport{sim, util::Rng(7)};
  std::unique_ptr<DustManager> manager;
  std::vector<std::unique_ptr<DustClient>> clients;
  std::vector<std::unique_ptr<sim::MonitoredNode>> devices;

  // Ring of `n` protocol-only clients (no device model).
  explicit Harness(std::uint32_t n, ManagerConfig config = fast_config(),
                   Thresholds thresholds = Thresholds{}) {
    net::NetworkState state(graph::make_ring(n));
    for (graph::NodeId v = 0; v < n; ++v) {
      state.set_node_utilization(v, 70.0);
      state.set_monitoring_data_mb(v, 10.0);
    }
    manager = std::make_unique<DustManager>(
        sim, transport, Nmdb(std::move(state), thresholds), config);
    for (graph::NodeId v = 0; v < n; ++v) {
      clients.push_back(std::make_unique<DustClient>(
          sim, transport, v, ClientConfig{.keepalive_interval_ms = 1000},
          util::Rng(100 + v)));
      clients.back()->set_reported_state(70.0, 10.0, 10);
    }
  }

  static ManagerConfig fast_config() {
    ManagerConfig config;
    config.update_interval_ms = 1000;
    config.placement_period_ms = 5000;
    config.keepalive_timeout_ms = 4000;
    config.keepalive_check_period_ms = 1000;
    return config;
  }

  void start_all() {
    for (auto& client : clients) client->start();
    manager->start();
  }
};

TEST(Protocol, HandshakeAcksCapableClients) {
  Harness h(4);
  h.clients[2] = std::make_unique<DustClient>(
      h.sim, h.transport, 2, ClientConfig{.offload_capable = false},
      util::Rng(1));
  h.start_all();
  h.sim.run_until(100);
  EXPECT_TRUE(h.clients[0]->acknowledged());
  EXPECT_FALSE(h.clients[2]->acknowledged());  // opted out, no ACK
  EXPECT_FALSE(h.manager->nmdb().offload_capable(2));
  EXPECT_TRUE(h.manager->nmdb().offload_capable(0));
}

TEST(Protocol, StatsFlowIntoNmdb) {
  Harness h(3);
  h.start_all();
  h.clients[1]->set_reported_state(92.5, 42.0, 8);
  h.sim.run_until(3000);
  EXPECT_GT(h.manager->stats_received(), 0u);
  EXPECT_DOUBLE_EQ(h.manager->nmdb().network().node_utilization(1), 92.5);
  EXPECT_DOUBLE_EQ(h.manager->nmdb().network().monitoring_data_mb(1), 42.0);
  EXPECT_EQ(h.manager->nmdb().agent_count(1), 8u);
}

TEST(Protocol, PlacementCreatesOffloadAndTransfersAgents) {
  Harness h(4);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);  // busy: Cs = 10
  h.clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate: Cd = 20
  h.sim.run_until(10000);
  EXPECT_GE(h.manager->active_offload_count(), 1u);
  const auto offloads = h.manager->active_offloads();
  ASSERT_FALSE(offloads.empty());
  EXPECT_EQ(offloads[0].busy, 0u);
  EXPECT_EQ(offloads[0].destination, 1u);
  EXPECT_TRUE(offloads[0].acknowledged);
  // Agents re-homed: 10 * (10 / 10) = 10 agents moved.
  EXPECT_EQ(h.clients[0]->offloaded_agent_count(), 10u);
  EXPECT_EQ(h.clients[1]->hosted_agent_count(), 10u);
  EXPECT_EQ(h.manager->nmdb().role(1), NodeRole::kOffloadDestination);
}

TEST(Protocol, DestinationSendsKeepalives) {
  Harness h(4);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  h.clients[1]->set_reported_state(40.0, 5.0, 10);
  h.sim.run_until(20000);
  EXPECT_GT(h.clients[1]->keepalives_sent(), 2u);
  EXPECT_EQ(h.manager->keepalive_failures(), 0u);
}

TEST(Protocol, FailedDestinationReplacedByReplica) {
  Harness h(5);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);  // busy
  h.clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate (nearest)
  h.clients[2]->set_reported_state(40.0, 5.0, 10);   // replica candidate
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  const graph::NodeId first_dest = h.manager->active_offloads()[0].destination;

  // Kill the destination: keepalives stop.
  h.clients[first_dest]->set_failed(true);
  h.sim.run_until(30000);
  EXPECT_GE(h.manager->keepalive_failures(), 1u);
  const auto offloads = h.manager->active_offloads();
  ASSERT_GE(offloads.size(), 1u);
  EXPECT_NE(offloads[0].destination, first_dest);
  // Busy client re-homed its agents to the replica.
  const auto destinations = h.clients[0]->hosting_destinations();
  ASSERT_EQ(destinations.size(), 1u);
  EXPECT_NE(destinations[0], first_dest);
  EXPECT_GT(h.clients[destinations[0]]->hosted_agent_count(), 0u);
}

// Satellite of the dust::check harness: a burst of Keepalive loss longer
// than the keepalive timeout must be treated as a destination failure, and
// the replica substitution (REP to the busy client, agents re-homed) must
// complete within 2x the keepalive timeout of the burst starting — even
// though STATs and OffloadAcks to the manager are lost during the burst.
TEST(Protocol, ReplicaSubstitutionUnderBurstyKeepaliveLoss) {
  Harness h(5);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);  // busy
  h.clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate (nearest)
  h.clients[2]->set_reported_state(40.0, 5.0, 10);   // replica candidate
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  const graph::NodeId first_dest = h.manager->active_offloads()[0].destination;
  ASSERT_EQ(h.clients[0]->reps_received(), 0u);

  // Burst: everything inbound to the manager — keepalives included — is
  // lost for longer than keepalive_timeout_ms (4000), then heals.
  constexpr sim::TimeMs kBurstStart = 12000;
  constexpr sim::TimeMs kBurstEnd = 17000;
  h.sim.schedule_at(kBurstStart, [&h] {
    h.transport.set_partitioned("dust-manager", true);
  });
  h.sim.schedule_at(kBurstEnd, [&h] {
    h.transport.set_partitioned("dust-manager", false);
  });

  // The deadline the harness audits (invariant I6): burst start + 2x timeout.
  h.sim.run_until(kBurstStart + 2 * 4000);
  EXPECT_GE(h.manager->keepalive_failures(), 1u);
  EXPECT_GE(h.clients[0]->reps_received(), 1u);  // REP reached the busy node
  const auto offloads = h.manager->active_offloads();
  ASSERT_GE(offloads.size(), 1u);
  EXPECT_NE(offloads[0].destination, first_dest);
  const auto destinations = h.clients[0]->hosting_destinations();
  ASSERT_EQ(destinations.size(), 1u);
  EXPECT_NE(destinations[0], first_dest);
  EXPECT_GT(h.clients[destinations[0]]->hosted_agent_count(), 0u);

  // After the burst heals, the substituted offload stays stable: no
  // flip-flop back to the quarantined original.
  h.sim.run_until(30000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  EXPECT_NE(h.manager->active_offloads()[0].destination, first_dest);
}

TEST(Protocol, LoadDropTriggersRelease) {
  Harness h(4);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  h.clients[1]->set_reported_state(40.0, 5.0, 10);
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  // Busy node's residual load falls far below Cmax: it can re-absorb.
  h.clients[0]->set_reported_state(30.0, 10.0, 0);
  h.sim.run_until(20000);
  EXPECT_EQ(h.manager->active_offload_count(), 0u);
  EXPECT_GE(h.manager->releases(), 1u);
  EXPECT_EQ(h.clients[0]->offloaded_agent_count(), 0u);
  EXPECT_EQ(h.clients[1]->hosted_agent_count(), 0u);
}

TEST(Protocol, NoneOffloadingNodeNeverChosen) {
  Harness h(4);
  // Node 1 would be the best candidate but opts out.
  h.clients[1] = std::make_unique<DustClient>(
      h.sim, h.transport, 1, ClientConfig{.offload_capable = false},
      util::Rng(2));
  h.clients[1]->set_reported_state(10.0, 5.0, 10);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  h.clients[3]->set_reported_state(40.0, 5.0, 10);  // capable candidate
  h.sim.run_until(10000);
  for (const ActiveOffload& offload : h.manager->active_offloads())
    EXPECT_NE(offload.destination, 1u);
}

TEST(Protocol, TelemetryDataRidesLowPriority) {
  Harness h(4);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  h.clients[1]->set_reported_state(40.0, 5.0, 10);
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);

  // Congest the fabric: monitoring data is dropped, control still flows.
  h.transport.set_congested(true);
  const std::uint64_t dropped_before = h.transport.dropped();
  telemetry::DeviceSnapshot snapshot;
  snapshot.timestamp_ms = h.sim.now();
  h.clients[0]->publish_snapshot(snapshot);
  h.sim.run_until(h.sim.now() + 100);
  EXPECT_GT(h.transport.dropped(), dropped_before);
  // Keepalives (kNormal) still arrive despite congestion.
  const std::uint64_t keepalives_before = h.clients[1]->keepalives_sent();
  h.sim.run_until(h.sim.now() + 10000);
  EXPECT_GT(h.clients[1]->keepalives_sent(), keepalives_before);
  EXPECT_EQ(h.manager->keepalive_failures(), 0u);
}

// Garbage for a manager is a client-bound message: counted, then ignored.
TEST(Protocol, ManagerIgnoresGarbagePayload) {
  Harness h(3);
  h.start_all();
  const obs::Counter& unexpected =
      obs::MetricRegistry::global().counter("dust_core_rx_unexpected_total");
  const std::uint64_t unexpected_before = unexpected.value();
  h.transport.send("stranger", manager_endpoint(),
                   AgentTransferMsg{1, 0, {}, {}});
  h.sim.run_until(100);
  EXPECT_EQ(unexpected.value(), unexpected_before + 1);
  EXPECT_EQ(h.manager->active_offload_count(), 0u);
}

TEST(Protocol, StopCancelsPeriodicWork) {
  Harness h(3);
  h.start_all();
  h.sim.run_until(1000);
  h.manager->stop();
  const std::size_t cycles = h.manager->placement_cycles();
  h.sim.run_until(60000);
  EXPECT_EQ(h.manager->placement_cycles(), cycles);
}

TEST(Protocol, DeviceBackedClientsMoveRealAgents) {
  // Full-stack: device models + protocol; offload moves MonitorAgents and
  // remote snapshots drive the destination's hosted agents. The simulated
  // switch runs ~31% CPU when monitoring locally (the Fig. 6 operating
  // point), so this scenario uses device-scale thresholds: busy above 25%,
  // candidate below 20%.
  Thresholds device_scale;
  device_scale.c_max = 25.0;
  device_scale.co_max = 20.0;
  device_scale.x_min = 5.0;
  Harness h(4, Harness::fast_config(), device_scale);
  h.devices.push_back(std::make_unique<sim::MonitoredNode>(
      "busy", sim::NodeResources{}, 15.0, 10000.0));
  h.devices.push_back(std::make_unique<sim::MonitoredNode>(
      "dest", sim::NodeResources{}, 10.0, 6000.0));
  for (auto& agent : telemetry::standard_agents())
    h.devices[0]->add_local_agent(agent);
  const ClientConfig fast_keepalive{.offload_capable = true,
                                    .keepalive_interval_ms = 1000};
  h.clients[0] = std::make_unique<DustClient>(h.sim, h.transport, 0,
                                              fast_keepalive, util::Rng(11),
                                              h.devices[0].get());
  h.clients[1] = std::make_unique<DustClient>(h.sim, h.transport, 1,
                                              fast_keepalive, util::Rng(12),
                                              h.devices[1].get());
  // The remaining ring nodes sit in the neutral band for these thresholds.
  h.clients[2]->set_reported_state(22.0, 5.0, 0);
  h.clients[3]->set_reported_state(22.0, 5.0, 0);
  h.start_all();

  // Drive device ticks + stats so the manager sees a busy node.
  util::Rng rng(55);
  for (int t = 0; t <= 20; ++t) {
    h.devices[0]->tick(h.sim.now(), 1000, 20000.0, 0.0, rng);
    h.devices[1]->tick(h.sim.now(), 1000, 5000.0, 0.0, rng);
    h.clients[0]->send_stat();
    h.clients[1]->send_stat();
    h.sim.run_until(h.sim.now() + 1000);
  }
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  EXPECT_EQ(h.devices[0]->local_agent_count(), 0u);
  EXPECT_EQ(h.devices[1]->remote_agent_count(), 10u);

  // Remote snapshots charge CPU at the destination.
  telemetry::DeviceSnapshot snap;
  snap.timestamp_ms = h.sim.now();
  snap.rx_mbps = 20000.0;
  h.clients[0]->publish_snapshot(snap);
  h.sim.run_until(h.sim.now() + 100);
  const sim::TickStats stats =
      h.devices[1]->tick(h.sim.now(), 1000, 5000.0, 0.0, rng);
  EXPECT_GT(stats.monitor_cpu_cores, 0.5);
}

TEST(Protocol, OffloadCarriesControllableRoute) {
  Harness h(5);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  h.clients[2]->set_reported_state(40.0, 5.0, 10);  // candidate 2 hops away
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  const ActiveOffload offload = h.manager->active_offloads()[0];
  ASSERT_GE(offload.route.size(), 2u);
  EXPECT_EQ(offload.route.front(), offload.busy);
  EXPECT_EQ(offload.route.back(), offload.destination);
  // Consecutive route nodes must be adjacent in the topology.
  const graph::Graph& g = h.manager->nmdb().network().graph();
  for (std::size_t i = 0; i + 1 < offload.route.size(); ++i)
    EXPECT_TRUE(g.find_edge(offload.route[i], offload.route[i + 1]).has_value());
}

TEST(Protocol, HandshakeRecordsPlatformFactor) {
  Harness h(3);
  h.clients[1] = std::make_unique<DustClient>(
      h.sim, h.transport, 1,
      ClientConfig{.offload_capable = true,
                   .keepalive_interval_ms = 1000,
                   .platform_factor = 4.0},
      util::Rng(3));
  h.clients[1]->set_reported_state(70.0, 10.0, 10);
  h.start_all();
  h.sim.run_until(100);
  EXPECT_DOUBLE_EQ(h.manager->nmdb().platform_factor(1), 4.0);
  EXPECT_DOUBLE_EQ(h.manager->nmdb().platform_factor(0), 1.0);
  EXPECT_FALSE(h.manager->nmdb().homogeneous());
}

TEST(Protocol, BusyDestinationRedirectsWorkload) {
  Harness h(5);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);  // busy
  h.clients[1]->set_reported_state(40.0, 5.0, 10);   // first destination
  h.clients[2]->set_reported_state(40.0, 5.0, 10);   // redirect target
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  const graph::NodeId first_dest = h.manager->active_offloads()[0].destination;

  // The destination gets overloaded by its own primary functions (still
  // alive, still keepaliving): the manager must redirect, not quarantine.
  h.clients[first_dest]->set_reported_state(92.0, 5.0, 10);
  h.sim.run_until(25000);
  EXPECT_GE(h.manager->redirects(), 1u);
  EXPECT_TRUE(h.manager->nmdb().offload_capable(first_dest));  // not dead
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  for (const ActiveOffload& offload : h.manager->active_offloads())
    EXPECT_NE(offload.destination, first_dest);
  // Old destination dropped the hosted agents; the busy node re-homed them.
  EXPECT_EQ(h.clients[first_dest]->hosted_agent_count(), 0u);
  const auto destinations = h.clients[0]->hosting_destinations();
  ASSERT_EQ(destinations.size(), 1u);
  EXPECT_NE(destinations[0], first_dest);
  EXPECT_GT(h.clients[destinations[0]]->hosted_agent_count(), 0u);
}

TEST(Protocol, ConvergesUnderMessageLoss) {
  // 15% of control-plane messages vanish; periodic STATs and placement
  // cycles must still converge to a working offload.
  Harness h(4);
  h.transport.set_loss_probability(0.15);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  h.clients[1]->set_reported_state(40.0, 5.0, 10);
  h.sim.run_until(120000);
  EXPECT_GE(h.manager->active_offload_count(), 1u);
  EXPECT_GT(h.transport.dropped(), 0u);
  bool moved = false;
  for (const auto& client : h.clients)
    if (client->hosted_agent_count() > 0) moved = true;
  EXPECT_TRUE(moved);
}

TEST(Protocol, SurvivesDestinationChurn) {
  // Destinations fail one after another; each failure must produce a
  // replica hand-off until candidates run out.
  Harness h(6);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);
  for (graph::NodeId v : {1u, 2u, 3u})
    h.clients[v]->set_reported_state(40.0, 5.0, 10);
  h.sim.run_until(10000);
  std::set<graph::NodeId> killed;
  for (int round = 0; round < 2; ++round) {
    ASSERT_GE(h.manager->active_offload_count(), 1u);
    const graph::NodeId dest = h.manager->active_offloads()[0].destination;
    EXPECT_EQ(killed.count(dest), 0u);
    killed.insert(dest);
    h.clients[dest]->set_failed(true);
    h.sim.run_until(h.sim.now() + 20000);
  }
  EXPECT_GE(h.manager->keepalive_failures(), 2u);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  EXPECT_EQ(killed.count(h.manager->active_offloads()[0].destination), 0u);
}

// The incremental pipeline (Trmin cache + warm starts) drops in behind the
// same protocol flow: offloads are still created from cached rows across
// repeated cycles, the cache actually serves hits, the solver warm-starts,
// and the internal warm-vs-cold cross-check never fires.
TEST(Protocol, IncrementalPlacementMatchesProtocolFlow) {
  ManagerConfig config = Harness::fast_config();
  config.incremental_placement = true;
  config.optimizer.verify_warm_start = true;  // cross-check every warm solve
  Harness h(4, config);
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);  // busy: Cs = 10
  h.clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate: Cd = 20
  h.sim.run_until(10000);
  EXPECT_GE(h.manager->active_offload_count(), 1u);
  const auto offloads = h.manager->active_offloads();
  ASSERT_FALSE(offloads.empty());
  EXPECT_EQ(offloads[0].busy, 0u);
  EXPECT_EQ(offloads[0].destination, 1u);

  // Steady-state cycles (links untouched): every row comes from cache.
  for (int i = 0; i < 5; ++i) h.manager->run_placement_cycle();
  const net::ResponseTimeCacheStats stats = h.manager->trmin_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_GT(h.manager->engine().warm_solves(), 0u);
  const obs::RegistrySnapshot scrape = obs::MetricRegistry::global().snapshot();
  const auto* mismatches =
      scrape.find_counter("dust_solver_warm_verify_mismatch_total");
  ASSERT_NE(mismatches, nullptr);
  EXPECT_EQ(mismatches->value, 0u);
}

// The cache-sync stage (Trmin cache begin_cycle) is timed live under its
// own histogram, once per incremental placement cycle, so a slow cycle in a
// running fleet splits into sync / build / solve without a profiler.
TEST(Protocol, IncrementalCycleTimesCacheSync) {
  ManagerConfig config = Harness::fast_config();
  config.incremental_placement = true;
  Harness h(4, config);
  obs::MetricRegistry::global().reset();
  for (int i = 0; i < 3; ++i) h.manager->run_placement_cycle();
  const obs::RegistrySnapshot scrape = obs::MetricRegistry::global().snapshot();
  const auto* sync_ms =
      scrape.find_histogram("dust_core_placement_cache_sync_ms");
  ASSERT_NE(sync_ms, nullptr);
  EXPECT_EQ(sync_ms->count, 3u);
  const auto* build_ms = scrape.find_histogram("dust_core_placement_build_ms");
  ASSERT_NE(build_ms, nullptr);
  EXPECT_EQ(build_ms->count, sync_ms->count);
}

// The dispatch stage (routes and sends of the assignment loop) is timed
// once per cycle next to build and solve, whether or not the cycle creates
// an offload.
TEST(Protocol, PlacementCycleTimesDispatch) {
  Harness h(4, Harness::fast_config());
  h.start_all();
  h.clients[0]->set_reported_state(90.0, 10.0, 10);  // busy: Cs = 10
  h.clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate: Cd = 20
  h.sim.run_until(1000);
  obs::MetricRegistry::global().reset();
  EXPECT_EQ(h.manager->run_placement_cycle(), 1u);  // creates the offload
  for (int i = 0; i < 2; ++i) h.manager->run_placement_cycle();
  const obs::RegistrySnapshot scrape = obs::MetricRegistry::global().snapshot();
  const auto* dispatch_ms =
      scrape.find_histogram("dust_core_placement_dispatch_ms");
  ASSERT_NE(dispatch_ms, nullptr);
  EXPECT_EQ(dispatch_ms->count, 3u);
  const auto* build_ms = scrape.find_histogram("dust_core_placement_build_ms");
  ASSERT_NE(build_ms, nullptr);
  EXPECT_EQ(build_ms->count, dispatch_ms->count);
}

}  // namespace
}  // namespace dust::core
