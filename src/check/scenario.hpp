// dust::check scenario model: a fully self-describing random test case.
//
// A ScenarioSpec captures everything a harness run needs — topology, load
// vector, churn trace, node deaths, and the transport fault schedule — as
// plain data, so a failing case can be (a) replayed bit-identically from its
// seed, (b) shrunk by editing the spec (see shrink.hpp), and (c) dumped as
// an annotated .scn file a human can read and scenario_cli can load.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/nmdb.hpp"
#include "core/transport.hpp"

namespace dust::check {

enum class TopologyKind : std::uint8_t {
  kFatTree,           ///< paper §V-B switch-level fat-tree, k ∈ {4, 6, 8}
  kRandomRegular,     ///< random 4-regular-ish graph (circulant + swaps)
  kHeterogeneousDpu,  ///< leaf-spine with DPU-class platform factors
};

[[nodiscard]] const char* to_string(TopologyKind kind) noexcept;

/// One load change applied mid-run (drives STAT updates and churn).
struct ChurnEvent {
  sim::TimeMs at_ms = 0;
  graph::NodeId node = graph::kInvalidNode;
  double utilization_percent = 0.0;
};

/// Permanent node crash at `at_ms` (stops STATs/Keepalives, drops messages).
struct NodeDeathEvent {
  sim::TimeMs at_ms = 0;
  graph::NodeId node = graph::kInvalidNode;
};

/// Byzantine attack axis (DESIGN.md §14): one misbehaving node per script.
enum class AttackKind : std::uint8_t {
  /// STATs report utilization + magnitude (negative = under-report load,
  /// i.e. over-promise spare capacity) while the device delivers a fixed
  /// degraded fraction of what an honest node would.
  kCapacityLie,
  /// Accepts offloads and keepalives normally but silently drops the hosted
  /// agents' telemetry — invisible to the control plane.
  kBlackhole,
  /// Goes silent (no keepalives/STATs) for the first down_ms of every
  /// period_ms window and re-announces Offload-capable at each
  /// up-transition, un-quarantining itself to a trust-blind manager.
  kKeepaliveFlap,
};

[[nodiscard]] const char* to_string(AttackKind kind) noexcept;

/// One node turning byzantine at `at_ms` (behavior persists to end of run).
struct AttackScript {
  sim::TimeMs at_ms = 0;
  graph::NodeId node = graph::kInvalidNode;
  AttackKind kind = AttackKind::kCapacityLie;
  double magnitude = 0.0;     ///< kCapacityLie: STAT utilization bias
  sim::TimeMs period_ms = 0;  ///< kKeepaliveFlap: window length
  sim::TimeMs down_ms = 0;    ///< kKeepaliveFlap: silent window prefix
};

struct ScenarioSpec {
  std::uint64_t seed = 0;
  TopologyKind topology = TopologyKind::kFatTree;
  std::uint32_t fat_tree_k = 4;   ///< kFatTree only
  std::uint32_t node_count = 0;   ///< resolved for every kind
  std::uint32_t extra_edges = 0;  ///< kRandomRegular edge-swap budget

  // Per-node initial state, all sized node_count.
  std::vector<double> load;             ///< utilization %
  std::vector<double> data_mb;          ///< monitoring data D_i
  std::vector<std::uint32_t> agents;    ///< monitoring agent count
  std::vector<char> capable;            ///< 0 = None-offloading opt-out
  std::vector<double> platform_factor;  ///< 1.0 unless kHeterogeneousDpu

  std::vector<ChurnEvent> churn;
  std::vector<NodeDeathEvent> deaths;
  std::vector<sim::FaultEvent> faults;
  std::vector<AttackScript> attacks;

  sim::TimeMs duration_ms = 60000;
  std::uint32_t max_hops = 4;
};

struct GeneratorOptions {
  /// Hard cap on generated topology size (smoke budget); fat-tree k is
  /// demoted until 5k^2/4 fits.
  std::uint32_t max_nodes = 80;
  double busy_fraction = 0.25;     ///< nodes seeded above Cmax
  double opt_out_fraction = 0.1;   ///< None-offloading nodes
  std::size_t churn_events = 12;
  std::size_t death_events = 1;
  std::size_t fault_events = 6;
  bool allow_faults = true;
  bool allow_deaths = true;
  /// Byzantine scripts to generate (0 = none). Attack draws happen after
  /// every other draw, so raising this never perturbs the rest of the
  /// scenario a seed produces.
  std::size_t attack_events = 0;
};

/// Deterministic: the same (seed, options) always yields the same spec.
[[nodiscard]] ScenarioSpec generate_scenario(std::uint64_t seed,
                                             const GeneratorOptions& options = {});

/// Topology for the spec (seeded internally from spec.seed for
/// kRandomRegular, so rebuilding is deterministic).
[[nodiscard]] graph::Graph build_topology(const ScenarioSpec& spec);

/// NMDB preloaded with the spec's initial state (loads, capability flags,
/// platform factors, agent counts). This is the t=0 view; churn/faults are
/// applied by the runner over sim-time.
[[nodiscard]] core::Nmdb build_nmdb(const ScenarioSpec& spec);

/// Annotated .scn dump: the initial state in core::load_scenario syntax plus
/// '#'-comment lines recording seed, agent counts, churn, deaths, the fault
/// schedule, and attack scripts (ignored by core::load_scenario, so the dump
/// stays loadable by scenario_cli).
void dump_scenario(std::ostream& os, const ScenarioSpec& spec);
[[nodiscard]] std::string dump_scenario(const ScenarioSpec& spec);

/// Inverse of dump_scenario: rebuild the full ScenarioSpec (including the
/// annotation-only fields core::load_scenario ignores — agents, churn,
/// deaths, faults, attacks) from an annotated .scn stream. This is what the
/// tests/corpus/ repro replayer uses; round-trip is exact
/// (dump(parse(dump(s))) == dump(s)).
[[nodiscard]] ScenarioSpec parse_scenario_spec(std::istream& in);

}  // namespace dust::check
