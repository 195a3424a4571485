#include "check/wire_gen.hpp"

#include <bit>
#include <string>
#include <vector>

namespace dust::check {

namespace {

/// Any bit pattern, NaNs and infinities included: the codec must round-trip
/// doubles as raw bits, not as values.
double random_double(util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return std::bit_cast<double>(rng());
    case 1: return rng.uniform(-1e6, 1e6);
    case 2: return 0.0;
    default: return rng.uniform(0.0, 100.0);
  }
}

std::string random_string(util::Rng& rng, std::size_t max_len = 24) {
  const std::size_t len = rng.below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(static_cast<char>(rng.range(0, 255)));
  return out;
}

graph::NodeId random_node(util::Rng& rng) {
  return rng.bernoulli(0.05) ? graph::kInvalidNode
                             : static_cast<graph::NodeId>(rng.below(1 << 20));
}

obs::TraceContext random_trace(util::Rng& rng) {
  return obs::TraceContext{rng(), rng()};
}

std::vector<graph::NodeId> random_route(util::Rng& rng) {
  std::vector<graph::NodeId> route(rng.below(9));
  for (graph::NodeId& hop : route) hop = random_node(rng);
  return route;
}

telemetry::MonitorAgent random_agent(util::Rng& rng) {
  telemetry::AgentCostModel cost;
  cost.cpu_base_ms = random_double(rng);
  cost.cpu_per_gbps_ms = random_double(rng);
  cost.burst_probability = random_double(rng);
  cost.burst_multiplier = random_double(rng);
  cost.memory_base_mib = random_double(rng);
  std::string name = random_string(rng);
  const std::int64_t interval_ms = rng.range(1, 1000000);
  return telemetry::MonitorAgent(std::move(name), cost, interval_ms);
}

telemetry::DeviceSnapshot random_snapshot(util::Rng& rng) {
  telemetry::DeviceSnapshot snapshot;
  snapshot.timestamp_ms = static_cast<std::int64_t>(rng());
  snapshot.device_cpu_percent = random_double(rng);
  snapshot.memory_used_mib = random_double(rng);
  snapshot.rx_mbps = random_double(rng);
  snapshot.tx_mbps = random_double(rng);
  snapshot.temperature_c = random_double(rng);
  snapshot.links_up = static_cast<std::uint32_t>(rng());
  snapshot.links_total = static_cast<std::uint32_t>(rng());
  snapshot.protocol_flaps = static_cast<std::uint32_t>(rng());
  snapshot.faults = static_cast<std::uint32_t>(rng());
  return snapshot;
}

telemetry::DegradeMode random_mode(util::Rng& rng) {
  return static_cast<telemetry::DegradeMode>(rng.below(3));
}

}  // namespace

wire::DataBlocksBody random_data_blocks_body(util::Rng& rng) {
  wire::DataBlocksBody body;
  body.owner = random_node(rng);
  body.batch_seq = rng();
  body.mode = random_mode(rng);
  body.keep_probability = random_double(rng);
  body.trace = random_trace(rng);
  const std::size_t count = rng.below(5);
  body.blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    wire::DataBlock block;
    block.descriptor.series = random_string(rng);
    block.descriptor.block_seq = rng();
    block.descriptor.sample_count = static_cast<std::uint32_t>(rng());
    // Schema constraint: payload carries exactly ceil(bit_count / 8) bytes.
    block.descriptor.bit_count = rng.below(1 << 12);
    block.descriptor.first_timestamp_ms = static_cast<std::int64_t>(rng());
    block.descriptor.last_timestamp_ms = static_cast<std::int64_t>(rng());
    block.descriptor.last_value = random_double(rng);
    block.payload.resize((block.descriptor.bit_count + 7) / 8);
    for (std::uint8_t& byte : block.payload)
      byte = static_cast<std::uint8_t>(rng.range(0, 255));
    body.blocks.push_back(std::move(block));
  }
  return body;
}

wire::DegradeBody random_degrade_body(util::Rng& rng) {
  wire::DegradeBody body;
  body.owner = random_node(rng);
  body.mode = random_mode(rng);
  body.keep_probability = random_double(rng);
  if (rng.bernoulli(0.5)) {
    // Declared gap: an inclusive, possibly single-batch range.
    body.gap_from_batch = rng.below(1 << 16);
    body.gap_to_batch = body.gap_from_batch + rng.below(16);
  }  // else keep the default from > to "mode change only" encoding
  body.samples_dropped = static_cast<std::uint32_t>(rng());
  return body;
}

wire::ObsScrapeBody random_obs_scrape_body(util::Rng& rng) {
  wire::ObsScrapeBody body;
  body.scrape_seq = rng();
  body.ack_seq = rng();
  body.request_full = rng.bernoulli(0.5);
  return body;
}

wire::ObsSnapshotBody random_obs_snapshot_body(util::Rng& rng) {
  wire::ObsSnapshotBody body;
  body.node = random_string(rng);
  // The payload is opaque to the wire layer: arbitrary bytes (not
  // necessarily a decodable obs snapshot) must round-trip verbatim.
  body.payload.resize(rng.below(256));
  for (std::uint8_t& byte : body.payload)
    byte = static_cast<std::uint8_t>(rng.range(0, 255));
  return body;
}

wire::ShardHelloBody random_shard_hello_body(util::Rng& rng) {
  wire::ShardHelloBody body;
  body.shard = static_cast<std::uint32_t>(rng());
  body.epoch = rng();
  body.standby = rng.bernoulli(0.3);
  body.endpoint = random_string(rng);
  return body;
}

wire::CapacityDigestBody random_capacity_digest_body(util::Rng& rng) {
  wire::CapacityDigestBody body;
  body.shard = static_cast<std::uint32_t>(rng());
  body.epoch = rng();
  body.seq = rng();
  body.spare = random_double(rng);
  body.excess = random_double(rng);
  body.busy_count = static_cast<std::uint32_t>(rng());
  body.candidate_count = static_cast<std::uint32_t>(rng());
  return body;
}

wire::DelegateRequestBody random_delegate_request_body(util::Rng& rng) {
  wire::DelegateRequestBody body;
  body.shard = static_cast<std::uint32_t>(rng());
  body.epoch = rng();
  body.delegation_id = rng();
  body.busy = random_node(rng);
  body.amount = random_double(rng);
  body.agents = static_cast<std::uint32_t>(rng());
  body.platform_factor = random_double(rng);
  return body;
}

wire::DelegateReplyBody random_delegate_reply_body(util::Rng& rng) {
  wire::DelegateReplyBody body;
  body.shard = static_cast<std::uint32_t>(rng());
  body.epoch = rng();
  body.delegation_id = rng();
  body.granted = rng.bernoulli(0.5);
  body.destination = random_node(rng);
  body.amount = random_double(rng);
  return body;
}

wire::DomainHandoffBody random_domain_handoff_body(util::Rng& rng) {
  wire::DomainHandoffBody body;
  body.domain = static_cast<std::uint32_t>(rng());
  body.epoch = rng();
  body.endpoint = random_string(rng);
  return body;
}

core::Message random_message(util::Rng& rng, std::size_t type_index) {
  switch (type_index % 10) {
    case 0:
      return core::OffloadCapableMsg{random_node(rng), rng.bernoulli(0.8),
                                     random_double(rng)};
    case 1:
      return core::AckMsg{random_node(rng),
                          static_cast<std::int64_t>(rng())};
    case 2:
      return core::StatMsg{random_node(rng), random_double(rng),
                           random_double(rng),
                           static_cast<std::uint32_t>(rng()),
                           random_double(rng), random_trace(rng)};
    case 3:
      return core::OffloadRequestMsg{
          rng(), random_node(rng), random_node(rng), random_double(rng),
          static_cast<std::uint32_t>(rng()), random_route(rng),
          random_trace(rng)};
    case 4:
      return core::OffloadAckMsg{rng(), random_node(rng), rng.bernoulli(0.9),
                                 random_trace(rng)};
    case 5: {
      std::vector<telemetry::MonitorAgent> agents;
      const std::size_t count = rng.below(4);
      agents.reserve(count);
      for (std::size_t i = 0; i < count; ++i)
        agents.push_back(random_agent(rng));
      return core::AgentTransferMsg{rng(), random_node(rng),
                                    std::move(agents), random_trace(rng)};
    }
    case 6:
      return core::TelemetryDataMsg{random_node(rng), random_snapshot(rng)};
    case 7:
      return core::KeepaliveMsg{random_node(rng), rng()};
    case 8:
      return core::RepMsg{random_node(rng), random_node(rng),
                          random_node(rng), rng(),   random_double(rng),
                          random_trace(rng)};
    default:
      return core::ReleaseMsg{random_node(rng), random_node(rng)};
  }
}

wire::Frame random_frame(util::Rng& rng) {
  if (rng.bernoulli(0.1)) {
    std::vector<std::string> endpoints(rng.below(6));
    for (std::string& name : endpoints) name = random_string(rng);
    return wire::announce_frame(std::move(endpoints));
  }
  // Function arguments are evaluated in an unspecified order, so no call
  // below has more than one argument that draws from `rng`: a seed yields
  // the same frame under every compiler.
  std::string from = random_string(rng);
  std::string to = random_string(rng);
  const std::uint64_t trace_id = rng();
  // Data-plane frames get the same fuzz exposure as protocol frames.
  if (rng.bernoulli(0.1))
    return wire::data_blocks_frame(std::move(from), std::move(to),
                                   random_data_blocks_body(rng), trace_id);
  if (rng.bernoulli(0.1))
    return wire::degrade_frame(std::move(from), std::move(to),
                               random_degrade_body(rng), trace_id);
  // Observability-plane frames ride the same codec; fuzz them too.
  if (rng.bernoulli(0.05))
    return wire::obs_scrape_frame(std::move(from), std::move(to),
                                  random_obs_scrape_body(rng));
  if (rng.bernoulli(0.05))
    return wire::obs_snapshot_frame(std::move(from), std::move(to),
                                    random_obs_snapshot_body(rng));
  // Federation frames (manager-to-manager control plane) fuzz too.
  if (rng.bernoulli(0.04))
    return wire::shard_hello_frame(std::move(from), std::move(to),
                                   random_shard_hello_body(rng));
  if (rng.bernoulli(0.04))
    return wire::capacity_digest_frame(std::move(from), std::move(to),
                                       random_capacity_digest_body(rng));
  if (rng.bernoulli(0.04))
    return wire::delegate_request_frame(std::move(from), std::move(to),
                                        random_delegate_request_body(rng),
                                        trace_id);
  if (rng.bernoulli(0.04))
    return wire::delegate_reply_frame(std::move(from), std::move(to),
                                      random_delegate_reply_body(rng),
                                      trace_id);
  if (rng.bernoulli(0.04))
    return wire::domain_handoff_frame(std::move(from), std::move(to),
                                      random_domain_handoff_body(rng));
  wire::Frame frame = wire::message_frame(
      std::move(from), std::move(to), random_message(rng, rng.below(10)),
      trace_id);
  // Arbitrary headers, not only the ones message_frame derives: the codec
  // must carry any priority and kind verbatim.
  frame.priority =
      rng.bernoulli(0.5) ? sim::Priority::kLow : sim::Priority::kNormal;
  frame.kind = random_string(rng);
  return frame;
}

}  // namespace dust::check
