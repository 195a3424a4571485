// System bench: the federated control plane (DESIGN.md §16).
//
// Two measurements on in-process shard fleets (same FederatedManager state
// machines the daemons run, wired through a synchronous frame router):
//
//  1. Steady-state federation: a ring split into S shards where every
//     "hot" shard overflows its domain by design (one node at 95 %, local
//     spare 8, residual 7 delegated) and every "cool" shard has spare to
//     grant. Reports wall-clock fed_ms_per_cycle (all shards' solves +
//     delegation sweeps per federated cycle) and the delegation telemetry:
//     delegation_rate (confirmed grants per cycle) and delegated_share
//     (fraction of placed capacity that crossed a domain cut).
//
//  2. Failover: kill the shard-0 primary mid-run with a standby watching.
//     failover_detect_ms is the sim time from the last primary frame to
//     the standby's silence verdict (the configured timeout plus digest
//     phase slack); failover_ms adds takeover, client re-home, and the
//     re-solve until every pre-crash placement (including the cross-domain
//     delegation) is acknowledged again. Sim-time, so deterministic.
//
// Output: the usual table plus BENCH_federation.json (dust-bench-v1).
// scripts/bench_compare.py regression-checks fed_ms_per_cycle and
// failover*_ms; delegation_rate/delegated_share ride along informationally.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/client.hpp"
#include "core/transport.hpp"
#include "federation/federated_manager.hpp"
#include "federation/partition.hpp"
#include "graph/topology.hpp"
#include "net/network_state.hpp"
#include "util/table.hpp"

namespace dust::bench {
namespace {

using federation::DomainPartition;
using federation::FederatedManager;
using federation::FederatedManagerConfig;

FederatedManagerConfig fed_config(std::uint32_t shard) {
  FederatedManagerConfig config;
  config.shard = shard;
  config.digest_period_ms = 1000;
  config.digest_stale_ms = 5000;
  config.primary_silence_timeout_ms = 3000;
  config.manager.update_interval_ms = 500;
  config.manager.placement_period_ms = 2000;  // federated cycle period
  config.manager.keepalive_timeout_ms = 4000;
  config.manager.keepalive_check_period_ms = 500;
  return config;
}

/// S shards over a ring on one simulator. Even shards are "hot" (first
/// member 95 % busy, second the only candidate with spare 8 — residual 7
/// must cross the cut), odd shards "cool" (all members 30 %, plenty of
/// spare to grant). Every federated cycle therefore exercises the full
/// digest -> request -> grant -> adopt pipeline.
struct Fleet {
  sim::Simulator sim;
  sim::Transport transport{sim, util::Rng(7)};
  DomainPartition partition;
  std::vector<std::unique_ptr<FederatedManager>> shards;
  std::vector<std::unique_ptr<core::DustClient>> clients;

  Fleet(std::uint32_t nodes, std::size_t shard_count) {
    net::NetworkState state(graph::make_ring(nodes));
    partition = federation::partition_balanced(state.graph(), shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      shards.push_back(std::make_unique<FederatedManager>(
          sim, transport, core::Nmdb(state, core::Thresholds{}), partition,
          fed_config(s)));
      shards.back()->set_peer_sender(
          [this](wire::Frame&& frame) { return route(std::move(frame)); });
    }
    for (std::uint32_t s = 0; s < shard_count; ++s)
      for (std::uint32_t t = 0; t < shard_count; ++t)
        if (s != t) shards[s]->add_peer(t);
    for (graph::NodeId v = 0; v < nodes; ++v) {
      clients.push_back(std::make_unique<core::DustClient>(
          sim, transport, v,
          core::ClientConfig{
              .keepalive_interval_ms = 1000,
              .manager =
                  federation::shard_manager_endpoint(partition.shard_of(v))},
          util::Rng(100 + v)));
      clients.back()->set_reported_state(load_of(v), 10.0, 10);
    }
  }

  [[nodiscard]] double load_of(graph::NodeId v) const {
    const std::uint32_t s = partition.shard_of(v);
    if (s % 2 == 1) return 30.0;  // cool shard: grantable spare everywhere
    const std::vector<graph::NodeId>& members = partition.members[s];
    if (v == members[0]) return 95.0;  // hot: excess 15
    if (v == members[1]) return 52.0;  // lone local candidate: spare 8
    return 70.0;                       // neutral
  }

  bool route(wire::Frame&& frame) {
    for (auto& shard : shards) {
      if (shard == nullptr) continue;
      const std::string endpoint =
          shard->primary()
              ? federation::federation_endpoint(shard->shard())
              : federation::standby_federation_endpoint(shard->shard());
      if (frame.to == endpoint) {
        shard->handle_peer_frame(std::move(frame));
        return true;
      }
    }
    if (extra_receiver && frame.to == extra_endpoint) {
      extra_receiver->handle_peer_frame(std::move(frame));
      return true;
    }
    return false;
  }

  void start_all() {
    for (auto& client : clients) client->start();
    for (auto& shard : shards) shard->start();
  }

  FederatedManager* extra_receiver = nullptr;  ///< the standby, when present
  std::string extra_endpoint;
};

struct SteadyResult {
  double ms_per_cycle = 0.0;
  double delegation_rate = 0.0;
  double delegated_share = 0.0;
  std::uint64_t stale_frames = 0;
};

SteadyResult run_steady(std::uint32_t nodes, std::size_t shard_count,
                        std::size_t cycles) {
  Fleet fleet(nodes, shard_count);
  fleet.start_all();
  const std::int64_t cycle_ms =
      fed_config(0).manager.placement_period_ms;
  fleet.sim.run_until(2 * cycle_ms);  // settle: STATs in, first solves done

  const auto t0 = std::chrono::steady_clock::now();
  fleet.sim.run_until(fleet.sim.now() +
                      static_cast<std::int64_t>(cycles) * cycle_ms);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  SteadyResult result;
  result.ms_per_cycle = wall_ms / static_cast<double>(cycles);
  double placed = 0.0;
  double delegated = 0.0;
  std::uint64_t confirmed = 0;
  for (auto& shard : fleet.shards) {
    confirmed += shard->stats().delegations_confirmed;
    result.stale_frames += shard->stats().stale_frames_rejected;
    for (const core::ActiveOffload& offload :
         shard->manager().active_offloads()) {
      if (offload.external_origin) continue;  // counted on the origin side
      placed += offload.amount;
      if (offload.external_destination) delegated += offload.amount;
    }
  }
  result.delegation_rate =
      static_cast<double>(confirmed) / static_cast<double>(cycles);
  result.delegated_share = placed > 0.0 ? delegated / placed : 0.0;
  return result;
}

struct FailoverResult {
  double detect_ms = 0.0;  ///< last primary frame -> silence verdict
  double total_ms = 0.0;   ///< kill -> every placement acknowledged again
};

FailoverResult run_failover(std::uint32_t nodes) {
  Fleet fleet(nodes, 2);
  // Standby twin of shard 0 on its own transport, fed by observer copies —
  // the watch phase of the daemon deployment.
  sim::Transport standby_transport{fleet.sim, util::Rng(99)};
  net::NetworkState blank(graph::make_ring(nodes));
  FederatedManagerConfig standby_config = fed_config(0);
  standby_config.standby = true;
  FederatedManager standby(fleet.sim, standby_transport,
                           core::Nmdb(blank, core::Thresholds{}),
                           fleet.partition, standby_config);
  standby.set_peer_sender(
      [&fleet](wire::Frame&& frame) { return fleet.route(std::move(frame)); });
  standby.add_peer(1);
  fleet.shards[0]->add_observer(federation::standby_federation_endpoint(0));
  fleet.extra_receiver = &standby;
  fleet.extra_endpoint = federation::standby_federation_endpoint(0);

  fleet.start_all();
  standby.start();
  fleet.sim.run_until(3 * fed_config(0).manager.placement_period_ms);
  const std::size_t placements_before =
      fleet.shards[0]->manager().active_offload_count();

  // Primary dies: all its periodic tasks stop, nothing it owns fires again.
  // The husk stays allocated until the successor re-registers the shared
  // endpoint names (register-replaces semantics, stale unregister is a
  // no-op), mirroring a crashed process whose port the standby re-binds.
  const sim::TimeMs t_kill = fleet.sim.now();
  const std::uint64_t seen_epoch = standby.peer_epoch(0);
  fleet.shards[0]->stop();

  while (!standby.primary_silent())
    fleet.sim.run_until(fleet.sim.now() + 10);
  const sim::TimeMs t_detect = fleet.sim.now();

  // Takeover: a fresh primary for shard 0 on the fleet transport (the
  // daemon constructs it against the re-bound port), epoch fenced past
  // everything the dead primary said; clients re-home to it.
  net::NetworkState zero(graph::make_ring(nodes));
  FederatedManagerConfig takeover_config = fed_config(0);
  takeover_config.standby = true;  // become_primary() flips standbys only
  takeover_config.epoch = std::max<std::uint64_t>(seen_epoch, 1);
  auto new_primary = std::make_unique<FederatedManager>(
      fleet.sim, fleet.transport, core::Nmdb(zero, core::Thresholds{}),
      fleet.partition, takeover_config);
  new_primary->set_peer_sender(
      [&fleet](wire::Frame&& frame) { return fleet.route(std::move(frame)); });
  new_primary->add_peer(1);
  fleet.shards[0] = std::move(new_primary);  // successor registered; husk freed
  fleet.shards[0]->become_primary();
  for (graph::NodeId v : fleet.partition.members[0])
    fleet.clients[v]->rehome();

  const auto restored = [&] {
    const std::vector<core::ActiveOffload> offloads =
        fleet.shards[0]->manager().active_offloads();
    if (offloads.size() < placements_before) return false;
    return std::all_of(
        offloads.begin(), offloads.end(),
        [](const core::ActiveOffload& o) { return o.acknowledged; });
  };
  while (!restored())
    fleet.sim.run_until(fleet.sim.now() + 10);

  FailoverResult result;
  result.detect_ms = static_cast<double>(t_detect - t_kill);
  result.total_ms = static_cast<double>(fleet.sim.now() - t_kill);
  return result;
}

}  // namespace
}  // namespace dust::bench

int main() {
  using namespace dust;
  using namespace dust::bench;

  print_header("sys_federation",
               "sharded managers keep per-domain solves small while "
               "delegating overflow across domains; failover restores the "
               "fleet within the silence timeout plus one cycle");

  const std::uint32_t nodes = 48;
  const std::size_t cycles = iterations(50, 15);
  JsonReport report("federation");
  report.set_topology(nodes, nodes);  // ring: one edge per node

  util::Table table("federated steady state (ring-48)");
  table.header(
      {"shards", "fed_ms_per_cycle", "delegation_rate", "delegated_share"});
  for (const std::uint32_t shard_count : {2u, 4u}) {
    const SteadyResult steady = run_steady(nodes, shard_count, cycles);
    const std::string config = "topology=ring-" + std::to_string(nodes) +
                               ",shards=" + std::to_string(shard_count) +
                               ",cycles=" + std::to_string(cycles);
    report.add("fed_ms_per_cycle", steady.ms_per_cycle, "ms", config);
    report.add("delegation_rate", steady.delegation_rate, "per-cycle",
               config);
    report.add("delegated_share", steady.delegated_share, "ratio", config);
    report.add("stale_frames", static_cast<double>(steady.stale_frames),
               "count", config);
    table.row({static_cast<std::int64_t>(shard_count), steady.ms_per_cycle,
               steady.delegation_rate, steady.delegated_share});
  }
  emit(table);

  const FailoverResult failover = run_failover(12);
  const std::string failover_config =
      "topology=ring-12,shards=2,standby=1,silence_timeout_ms=3000";
  report.add("failover_detect_ms", failover.detect_ms, "sim-ms",
             failover_config);
  report.add("failover_ms", failover.total_ms, "sim-ms", failover_config);
  util::Table failover_table("failover (ring-12, standby takeover)");
  failover_table.header({"failover_detect_ms", "failover_ms"});
  failover_table.row({failover.detect_ms, failover.total_ms});
  emit(failover_table);

  report.write();
  return 0;
}
