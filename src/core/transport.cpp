#include "core/transport.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/flight_recorder.hpp"

namespace dust::sim {

namespace {

// Parse the node id out of "dust-client-<n>" endpoint names; the manager
// ("dust-manager") and anything unrecognised map to kNoNode.
std::int32_t endpoint_node(const std::string& endpoint) {
  constexpr std::string_view kPrefix = "dust-client-";
  if (endpoint.compare(0, kPrefix.size(), kPrefix) != 0)
    return obs::FlightEvent::kNoNode;
  std::int32_t node = 0;
  bool any = false;
  for (std::size_t i = kPrefix.size(); i < endpoint.size(); ++i) {
    const char ch = endpoint[i];
    if (ch < '0' || ch > '9') return obs::FlightEvent::kNoNode;
    node = node * 10 + (ch - '0');
    any = true;
  }
  return any ? node : obs::FlightEvent::kNoNode;
}

// Compact flight-recorder detail for a hop, built allocation-free into a
// stack buffer: "[<cause>: ]<kind> c3>M". This runs on every tx/rx/drop,
// so it must stay off the heap; truncation to the event's 31 detail chars
// is fine (the recorder truncates anyway).
struct DetailBuf {
  char data[obs::FlightEvent::kDetailCapacity];
  std::size_t len = 0;

  void append(std::string_view text) {
    const std::size_t room = sizeof(data) - 1 - len;
    const std::size_t n = text.size() < room ? text.size() : room;
    std::memcpy(data + len, text.data(), n);
    len += n;
  }
  void append_endpoint(const std::string& endpoint, std::int32_t node) {
    if (endpoint == "dust-manager") {
      append("M");
    } else if (node != obs::FlightEvent::kNoNode) {
      char digits[12];
      const int n = std::snprintf(digits, sizeof(digits), "c%d", node);
      if (n > 0) append(std::string_view(digits, static_cast<std::size_t>(n)));
    } else {
      append(endpoint);
    }
  }
  [[nodiscard]] std::string_view view() const { return {data, len}; }
};

void record_hop(obs::FlightEventKind event_kind, Simulator& sim,
                std::string_view kind, const std::string& from,
                const std::string& to, std::uint64_t trace_id,
                const char* cause = nullptr) {
  if (!obs::enabled()) return;  // skip the detail work entirely
  const std::int32_t from_node = endpoint_node(from);
  const std::int32_t to_node = endpoint_node(to);
  DetailBuf detail;
  if (cause != nullptr) {
    detail.append(cause);
    detail.append(": ");
  }
  detail.append(kind);
  detail.append(" ");
  detail.append_endpoint(from, from_node);
  detail.append(">");
  detail.append_endpoint(to, to_node);
  obs::FlightRecorder::global().record(event_kind, sim.now(), trace_id,
                                       from_node, to_node, 0.0, detail.view());
}

}  // namespace

Transport::Transport(Simulator& sim, util::Rng rng) : sim_(&sim), rng_(rng) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  metrics_.sent = &registry.counter("dust_sim_transport_sent_total");
  metrics_.sent_low = &registry.counter("dust_sim_transport_sent_low_total");
  metrics_.delivered = &registry.counter("dust_sim_transport_delivered_total");
  metrics_.dropped = &registry.counter("dust_sim_transport_dropped_total");
  metrics_.dropped_congestion =
      &registry.counter("dust_sim_transport_dropped_congestion_total");
  metrics_.dropped_loss =
      &registry.counter("dust_sim_transport_dropped_loss_total");
  metrics_.dropped_partition =
      &registry.counter("dust_sim_transport_dropped_partition_total");
  metrics_.dropped_no_endpoint =
      &registry.counter("dust_sim_transport_dropped_no_endpoint_total");
  metrics_.delivery_latency_ms =
      &registry.histogram("dust_sim_transport_delivery_latency_ms");
}

void Transport::set_loss_probability(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("Transport: loss probability out of [0,1]");
  loss_probability_ = p;
}

void Transport::set_partitioned(const std::string& endpoint, bool partitioned) {
  partitioned_[endpoint] = partitioned;
}

std::uint64_t Transport::register_endpoint(const std::string& name,
                                           Handler handler) {
  if (!handler) throw std::invalid_argument("Transport: null handler");
  const std::uint64_t token = next_token_++;
  endpoints_[name] = Endpoint{std::move(handler), token};
  return token;
}

void Transport::unregister_endpoint(const std::string& name,
                                    std::uint64_t token) {
  auto it = endpoints_.find(name);
  if (it != endpoints_.end() && it->second.token == token)
    endpoints_.erase(it);
}

bool Transport::has_endpoint(const std::string& name) const {
  return endpoints_.count(name) > 0;
}

void Transport::send(const std::string& from, const std::string& to,
                     core::Message message, std::uint64_t trace_id) {
  const Priority priority = core::message_priority(message);
  const char* kind = core::message_kind(message);
  ++sent_;
  metrics_.sent->inc();
  if (priority == Priority::kLow) metrics_.sent_low->inc();
  record_hop(obs::FlightEventKind::kMessageTx, *sim_, kind, from, to,
             trace_id);
  // Precedence: loss -> partition -> congestion. The loss draw must come
  // first so partition/congestion toggles never change how many RNG draws a
  // message sequence consumes; otherwise a fault schedule flipping
  // congestion would shift every subsequent loss decision and runs would
  // not replay under a fixed seed (see header comment on send()).
  if (loss_probability_ > 0 && rng_.bernoulli(loss_probability_)) {
    ++dropped_;
    metrics_.dropped->inc();
    metrics_.dropped_loss->inc();
    record_hop(obs::FlightEventKind::kMessageDrop, *sim_, kind, from, to,
               trace_id, "loss");
    return;
  }
  if (auto it = partitioned_.find(to); it != partitioned_.end() && it->second) {
    ++dropped_;
    metrics_.dropped->inc();
    metrics_.dropped_partition->inc();
    record_hop(obs::FlightEventKind::kMessageDrop, *sim_, kind, from, to,
               trace_id, "partition");
    return;
  }
  if (congested_ && priority == Priority::kLow) {
    ++dropped_;  // QoS: monitoring data is discardable under congestion
    metrics_.dropped->inc();
    metrics_.dropped_congestion->inc();
    record_hop(obs::FlightEventKind::kMessageDrop, *sim_, kind, from, to,
               trace_id, "congestion");
    return;
  }
  Envelope envelope{from, to, std::move(message), trace_id};
  const TimeMs sent_at = sim_->now();
  // Moved, never copied: the simulator moves events out of its queue.
  sim_->schedule(default_latency_ms_,
                 [this, envelope = std::move(envelope), sent_at] {
    // Endpoint may have unregistered while in flight (e.g. failed node).
    auto it = endpoints_.find(envelope.to);
    if (it == endpoints_.end()) {
      ++dropped_;
      metrics_.dropped->inc();
      metrics_.dropped_no_endpoint->inc();
      record_hop(obs::FlightEventKind::kMessageDrop, *sim_,
                 core::message_kind(envelope.message), envelope.from,
                 envelope.to, envelope.trace_id, "no_endpoint");
      return;
    }
    ++delivered_;
    metrics_.delivered->inc();
    metrics_.delivery_latency_ms->observe(
        static_cast<double>(sim_->now() - sent_at));
    // No flight event for an ordinary delivery: every send is already
    // recorded as msg_tx and every failure as msg_drop, so delivery is the
    // implied default — recording it too would double the hot-path flight
    // volume for no extra diagnostic power.
    it->second.handler(envelope);
  });
}

void schedule_fault_script(Simulator& sim, Transport& transport,
                           const std::vector<FaultEvent>& script) {
  const TimeMs now = sim.now();
  for (const FaultEvent& event : script) {
    const TimeMs delay = event.at_ms > now ? event.at_ms - now : 0;
    sim.schedule(delay, [&transport, event] {
      switch (event.kind) {
        case FaultEvent::Kind::kLossProbability:
          transport.set_loss_probability(event.value);
          break;
        case FaultEvent::Kind::kPartition:
          transport.set_partitioned(event.endpoint, true);
          break;
        case FaultEvent::Kind::kHeal:
          transport.set_partitioned(event.endpoint, false);
          break;
        case FaultEvent::Kind::kCongestionOn:
          transport.set_congested(true);
          break;
        case FaultEvent::Kind::kCongestionOff:
          transport.set_congested(false);
          break;
      }
    });
  }
}

}  // namespace dust::sim
