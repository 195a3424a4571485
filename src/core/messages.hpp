// DUST control-plane protocol (paper §III-B / Fig. 3).
//
// Wire flow:
//   client -> manager : OffloadCapableMsg (join handshake, '1'/'0')
//   manager -> client : AckMsg (sets the STAT Update-Interval Time)
//   client -> manager : StatMsg (periodic resource/monitoring state)
//   manager -> client : OffloadRequestMsg (placement decision, to the busy
//                        node and to each chosen destination)
//   client -> manager : OffloadAckMsg
//   busy   -> dest    : AgentTransferMsg (the moved monitoring workload)
//   busy   -> dest    : TelemetryDataMsg (remote snapshots; QoS kLow)
//   dest   -> manager : KeepaliveMsg (while hosting)
//   manager-> client  : RepMsg (failed destination replaced by a replica)
//   manager-> busy    : ReleaseMsg (reclaim: resources freed up again)
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "sim/priority.hpp"
#include "telemetry/agent.hpp"

namespace dust::core {

// Causal tracing (DESIGN.md §10): protocol messages that participate in an
// offload chain carry the TraceContext of the span that caused them, always
// as the *last* member (existing aggregate initializers keep working; the
// context default-initializes to invalid). STAT roots a trace; the solve /
// Offload-Request / Offload-ACK / REP spans extend it across processes.

struct OffloadCapableMsg {
  graph::NodeId node = graph::kInvalidNode;
  bool capable = true;  ///< '1' participates, '0' = none-offloading
  /// Device persona (§IV-A): platform capacity factor relative to the
  /// baseline switch; the manager stores it in the NMDB for heterogeneous
  /// placement. 1.0 = homogeneous default.
  double platform_factor = 1.0;
};

struct AckMsg {
  graph::NodeId node = graph::kInvalidNode;
  std::int64_t update_interval_ms = 60000;  ///< STAT Update-Interval Time
};

struct StatMsg {
  graph::NodeId node = graph::kInvalidNode;
  double utilization_percent = 0.0;
  double monitoring_data_mb = 0.0;
  std::uint32_t agent_count = 0;
  /// Surviving fraction of raw telemetry under data-plane degradation
  /// (1.0 = full fidelity). monitoring_data_mb is already scaled by this;
  /// the manager reads it so re-placement can tell "load shrank" apart from
  /// "load is being sampled away under backpressure".
  double telemetry_keep_fraction = 1.0;
  obs::TraceContext trace{};  ///< root of the offload causal chain
};

struct OffloadRequestMsg {
  std::uint64_t request_id = 0;
  graph::NodeId busy = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  double amount = 0.0;  ///< capacity-percent to shed along this assignment
  /// How many of the busy node's monitoring agents this share represents
  /// (manager computes round(agents * amount / Cs)).
  std::uint32_t agents_to_move = 0;
  /// The controllable route the manager selected (node sequence from busy to
  /// destination, achieving Trmin within the configured max-hop bound).
  std::vector<graph::NodeId> route;
  obs::TraceContext trace{};  ///< offload_request span (child of solve)
};

struct OffloadAckMsg {
  std::uint64_t request_id = 0;
  graph::NodeId node = graph::kInvalidNode;
  bool accepted = true;
  obs::TraceContext trace{};  ///< offload_ack span (child of the request)
};

/// The moved workload: agents (by value) re-hosted at the destination.
struct AgentTransferMsg {
  std::uint64_t request_id = 0;
  graph::NodeId owner = graph::kInvalidNode;
  std::vector<telemetry::MonitorAgent> agents;
  obs::TraceContext trace{};  ///< agent_transfer span (child of the request)
};

/// Remote monitoring data: the busy node streams snapshots of itself to the
/// destination hosting its agents. QoS class kLow (§III-C).
struct TelemetryDataMsg {
  graph::NodeId owner = graph::kInvalidNode;
  telemetry::DeviceSnapshot snapshot;
};

struct KeepaliveMsg {
  graph::NodeId node = graph::kInvalidNode;
  std::uint64_t seq = 0;
};

/// Replica substitution after a destination failure (§III-C).
struct RepMsg {
  graph::NodeId failed = graph::kInvalidNode;
  graph::NodeId replacement = graph::kInvalidNode;
  graph::NodeId busy = graph::kInvalidNode;
  std::uint64_t request_id = 0;  ///< new request covering the moved share
  double amount = 0.0;
  obs::TraceContext trace{};  ///< rep span (extends the original chain)
};

/// Busy node's load dropped below Cmax again: reclaim local monitoring.
struct ReleaseMsg {
  graph::NodeId busy = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
};

using Message =
    std::variant<OffloadCapableMsg, AckMsg, StatMsg, OffloadRequestMsg,
                 OffloadAckMsg, AgentTransferMsg, TelemetryDataMsg,
                 KeepaliveMsg, RepMsg, ReleaseMsg>;

/// Endpoint naming convention on the simulated transport.
[[nodiscard]] std::string manager_endpoint();
[[nodiscard]] std::string client_endpoint(graph::NodeId node);

/// Canonical QoS class of a protocol message (§III-C): offloaded monitoring
/// data (TelemetryDataMsg) rides kLow and is discardable under congestion;
/// every control-plane message rides kNormal. The transports and
/// wire::message_frame derive a send's priority from this alone.
[[nodiscard]] sim::Priority message_priority(const Message& message);

/// Short flight-recorder / wire label of a message ("stat",
/// "offload_request", ...). Stable across transports.
[[nodiscard]] const char* message_kind(const Message& message);

}  // namespace dust::core
