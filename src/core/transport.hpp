// In-memory message transport with latency and loss injection.
//
// Stands in for the REST/gRPC channels between DUST-Clients and the
// DUST-Manager. Endpoints register a handler under a name; send() delivers a
// core::Message after the configured latency, unless the (seeded) loss
// process drops it. Protocol state machines in dust::core are exercised over
// this transport, including Keepalive loss -> replica substitution. It is
// built into dust_core (its payload is core::Message) under dust::sim names.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/messages.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/priority.hpp"
#include "util/rng.hpp"

namespace dust::sim {

/// One delivered message. Its QoS class and label are functions of it
/// (core::message_priority, core::message_kind); `trace_id` ties the hop to
/// a causal trace.
struct Envelope {
  std::string from;
  std::string to;
  core::Message message;
  std::uint64_t trace_id = 0;
};

/// The transport surface the protocol state machines (core::DustManager,
/// core::DustClient) program against: named endpoints with token-scoped
/// registration and fire-and-forget sends. Implementations decide what a
/// "send" physically is — the in-memory simulator Transport below delivers
/// through the event queue; wire::SocketTransport frames the message with
/// wire::Codec and moves it over TCP. Priority and kind are functions of the
/// message, so a sender cannot pass a wrong one and every implementation
/// derives the same values; only `trace_id` rides alongside.
class TransportBase {
 public:
  using Handler = std::function<void(const Envelope&)>;

  virtual ~TransportBase() = default;

  /// Register (or replace) the handler for `name`. Returns a registration
  /// token; unregistering with a stale token is a no-op, so a destroyed
  /// owner can never tear down a successor that re-registered the name.
  virtual std::uint64_t register_endpoint(const std::string& name,
                                          Handler handler) = 0;
  virtual void unregister_endpoint(const std::string& name,
                                   std::uint64_t token) = 0;
  [[nodiscard]] virtual bool has_endpoint(const std::string& name) const = 0;

  /// Queue delivery of `message` to `to` in its §III-C QoS class,
  /// core::message_priority(message). `trace_id` only labels the hop.
  virtual void send(const std::string& from, const std::string& to,
                    core::Message message, std::uint64_t trace_id = 0) = 0;
};

class Transport : public TransportBase {
 public:
  using Handler = TransportBase::Handler;

  Transport(Simulator& sim, util::Rng rng);

  void set_default_latency_ms(TimeMs latency) { default_latency_ms_ = latency; }
  /// Message loss probability in [0, 1] applied to every send.
  void set_loss_probability(double p);
  /// Per-destination partition: all traffic to `endpoint` is dropped.
  void set_partitioned(const std::string& endpoint, bool partitioned);

  /// Register (or replace) the handler for `name`. Returns a registration
  /// token; unregistering with a stale token is a no-op, so a destroyed
  /// owner can never tear down a successor that re-registered the name.
  std::uint64_t register_endpoint(const std::string& name,
                                  Handler handler) override;
  void unregister_endpoint(const std::string& name,
                           std::uint64_t token) override;
  [[nodiscard]] bool has_endpoint(const std::string& name) const override;

  /// Congestion drops all kLow-priority traffic (QoS guarantee of §III-C).
  void set_congested(bool congested) noexcept { congested_ = congested; }
  [[nodiscard]] bool congested() const noexcept { return congested_; }

  /// Queue delivery of `message` to `to` after the transport latency.
  /// Messages to unknown endpoints, lost messages, low-priority messages
  /// under congestion, and messages to partitioned endpoints are counted in
  /// dropped().
  ///
  /// Drop precedence is fixed at loss -> partition -> congestion: the random
  /// loss draw happens first on every send regardless of partition or
  /// congestion state, so the RNG stream consumed by a run is a function of
  /// the message sequence alone. Toggling partitions or congestion mid-run
  /// (e.g. via a fault schedule) therefore never shifts later loss draws,
  /// and a fault schedule replays bit-identically under a fixed seed.
  /// The message's kind and `trace_id` label the flight-recorder events for
  /// this hop but never influence delivery.
  void send(const std::string& from, const std::string& to,
            core::Message message, std::uint64_t trace_id = 0) override;

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  /// Global-registry handles (dust_sim_transport_*), resolved once at
  /// construction so the send path stays lock-free. Drops are counted both
  /// in total and by cause so QoS behaviour under congestion is scrapable.
  struct Metrics {
    obs::Counter* sent = nullptr;
    obs::Counter* sent_low = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* dropped_congestion = nullptr;
    obs::Counter* dropped_loss = nullptr;
    obs::Counter* dropped_partition = nullptr;
    obs::Counter* dropped_no_endpoint = nullptr;
    obs::Histogram* delivery_latency_ms = nullptr;  ///< sim-time latency
  };

  Simulator* sim_;
  util::Rng rng_;
  Metrics metrics_;
  TimeMs default_latency_ms_ = 1;
  double loss_probability_ = 0.0;
  bool congested_ = false;
  struct Endpoint {
    Handler handler;
    std::uint64_t token = 0;
  };
  std::unordered_map<std::string, Endpoint> endpoints_;
  std::uint64_t next_token_ = 1;
  std::unordered_map<std::string, bool> partitioned_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

/// One entry of a scripted fault schedule. Applied to a Transport at
/// `at_ms` sim-time by schedule_fault_script(); the dust::check scenario
/// generator emits these so a scenario's fault injection is replayable.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLossProbability,  ///< set_loss_probability(value)
    kPartition,        ///< set_partitioned(endpoint, true)
    kHeal,             ///< set_partitioned(endpoint, false)
    kCongestionOn,     ///< set_congested(true)
    kCongestionOff,    ///< set_congested(false)
  };
  TimeMs at_ms = 0;
  Kind kind = Kind::kLossProbability;
  double value = 0.0;     ///< kLossProbability only
  std::string endpoint;   ///< kPartition / kHeal only
};

/// Schedule every event of `script` against `transport` at its `at_ms`.
/// Events may be in any order; the transport must outlive the simulator run.
void schedule_fault_script(Simulator& sim, Transport& transport,
                           const std::vector<FaultEvent>& script);

}  // namespace dust::sim
