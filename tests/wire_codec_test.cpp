// wire::Codec properties: encode -> decode -> encode is byte-identical for
// every message type and random field content, the header layout matches the
// DESIGN.md §11 spec byte for byte, every envelope passenger survives the
// round trip, and the sliced CRC-32 agrees with the bytewise one.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/wire_gen.hpp"
#include "core/messages.hpp"
#include "util/rng.hpp"
#include "wire/crc32.hpp"

namespace dust {
namespace {

using wire::decode_frame;
using wire::DecodeResult;
using wire::DecodeStatus;
using wire::encode_frame;
using wire::Frame;
using wire::FrameType;

TEST(WireCodec, RoundTripIsByteIdenticalForEveryMessageType) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (std::size_t type_index = 0; type_index < 10; ++type_index) {
      util::Rng rng(seed * 977 + type_index);
      core::Message message = check::random_message(rng, type_index);
      const std::uint64_t trace_id = rng();
      Frame frame = wire::message_frame("dust-client-1", "dust-manager",
                                        std::move(message), trace_id);
      // Any header round-trips, not only the one message_frame derives.
      frame.priority =
          rng.bernoulli(0.5) ? sim::Priority::kLow : sim::Priority::kNormal;
      frame.kind = "kind-" + std::to_string(type_index);

      const std::vector<std::uint8_t> bytes = encode_frame(frame);
      const DecodeResult decoded = decode_frame(bytes.data(), bytes.size());
      ASSERT_EQ(decoded.status, DecodeStatus::kOk)
          << "seed " << seed << " type " << type_index;
      EXPECT_EQ(decoded.consumed, bytes.size());
      EXPECT_EQ(decoded.frame.type, frame.type);
      EXPECT_EQ(decoded.frame.priority, frame.priority);
      EXPECT_EQ(decoded.frame.trace_id, frame.trace_id);
      EXPECT_EQ(decoded.frame.from, frame.from);
      EXPECT_EQ(decoded.frame.to, frame.to);
      EXPECT_EQ(decoded.frame.kind, frame.kind);
      EXPECT_EQ(decoded.frame.message.index(), frame.message.index());

      // The strongest equality there is: identical bytes.
      const std::vector<std::uint8_t> reencoded = encode_frame(decoded.frame);
      EXPECT_EQ(reencoded, bytes) << "seed " << seed << " type " << type_index;
    }
  }
}

TEST(WireCodec, RandomFramesRoundTrip) {
  util::Rng rng(0xC0DEC);
  for (int i = 0; i < 500; ++i) {
    const Frame frame = check::random_frame(rng);
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    const DecodeResult decoded = decode_frame(bytes.data(), bytes.size());
    ASSERT_EQ(decoded.status, DecodeStatus::kOk) << "iteration " << i;
    EXPECT_EQ(encode_frame(decoded.frame), bytes) << "iteration " << i;
    ASSERT_EQ(decoded.raw_size, bytes.size());
    EXPECT_EQ(std::memcmp(decoded.raw, bytes.data(), bytes.size()), 0);
  }
}

TEST(WireCodec, HeaderLayoutMatchesSpec) {
  Frame frame = wire::message_frame("a", "b", core::AckMsg{}, 7);
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_GE(bytes.size(), wire::kWireHeaderBytes);
  // Magic: "DUST" read as a little-endian u32, i.e. the literal characters
  // 'D' 'U' 'S' 'T' in byte order.
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[1], 'U');
  EXPECT_EQ(bytes[2], 'S');
  EXPECT_EQ(bytes[3], 'T');
  // Version at offset 8, type tag at 10, payload length at 12 (all LE).
  EXPECT_EQ(bytes[8] | (bytes[9] << 8), wire::kWireVersion);
  EXPECT_EQ(bytes[10] | (bytes[11] << 8),
            static_cast<int>(FrameType::kAck));
  const std::size_t payload_len = bytes[12] | (bytes[13] << 8) |
                                  (bytes[14] << 16) |
                                  (static_cast<std::size_t>(bytes[15]) << 24);
  EXPECT_EQ(payload_len, bytes.size() - wire::kWireHeaderBytes);
  // Priority is the first payload byte.
  EXPECT_EQ(bytes[16], static_cast<std::uint8_t>(sim::Priority::kNormal));
}

// One frame per message type, built the way SocketTransport::send builds
// it. The hash was taken while every send site still passed its priority
// and kind by hand: deriving both from the message left the bytes alone.
TEST(WireCodec, ProtocolFrameBytesPinned) {
  telemetry::DeviceSnapshot snapshot;
  snapshot.timestamp_ms = 61000;
  snapshot.device_cpu_percent = 93.25;
  snapshot.links_up = 3;
  const obs::TraceContext ctx{0x1111, 0x2222};
  const std::vector<core::Message> messages = {
      core::OffloadCapableMsg{3, true, 1.5},
      core::AckMsg{3, 60000},
      core::StatMsg{3, 91.5, 12.25, 7, 0.75, ctx},
      core::OffloadRequestMsg{42, 3, 5, 12.5, 4, {3, 4, 5}, ctx},
      core::OffloadAckMsg{42, 5, true, ctx},
      core::AgentTransferMsg{
          42, 3, {telemetry::MonitorAgent("snmp.interfaces", {}, 1000)}, ctx},
      core::TelemetryDataMsg{3, snapshot},
      core::KeepaliveMsg{5, 9},
      core::RepMsg{5, 6, 3, 43, 12.5, ctx},
      core::ReleaseMsg{3, 6},
  };
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const core::Message& message : messages) {
    const Frame frame = wire::message_frame("dust-client-3", "dust-manager",
                                            message, ctx.trace_id);
    EXPECT_EQ(frame.priority, core::message_priority(message));
    EXPECT_EQ(frame.kind, core::message_kind(message));
    for (const std::uint8_t byte : encode_frame(frame))
      hash = (hash ^ byte) * 0x100000001b3ull;
  }
  EXPECT_EQ(hash, 0x86c64038d02071b8ull);
}

TEST(WireCodec, AnnounceRoundTrip) {
  Frame frame = wire::announce_frame({"dust-client-3", "dust-client-9", ""});
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  const DecodeResult decoded = decode_frame(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  EXPECT_EQ(decoded.frame.type, FrameType::kAnnounce);
  EXPECT_EQ(decoded.frame.announce_endpoints, frame.announce_endpoints);
  EXPECT_EQ(encode_frame(decoded.frame), bytes);
}

TEST(WireCodec, EncodeRejectsOverlongStrings) {
  Frame frame =
      wire::message_frame(std::string(70000, 'x'), "b", core::AckMsg{});
  EXPECT_THROW((void)encode_frame(frame), std::invalid_argument);
}

TEST(WireCodec, EveryMessageTypeHasAStableTag) {
  // The tag values are the wire contract — changing one breaks every
  // deployed peer, so pin them.
  util::Rng rng(1);
  const std::pair<std::size_t, FrameType> expected[] = {
      {0, FrameType::kOffloadCapable}, {1, FrameType::kAck},
      {2, FrameType::kStat},           {3, FrameType::kOffloadRequest},
      {4, FrameType::kOffloadAck},     {5, FrameType::kAgentTransfer},
      {6, FrameType::kTelemetryData},  {7, FrameType::kKeepalive},
      {8, FrameType::kRep},            {9, FrameType::kRelease},
  };
  for (const auto& [index, tag] : expected)
    EXPECT_EQ(wire::frame_type_of(check::random_message(rng, index)), tag);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kOffloadCapable), 1);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kRelease), 10);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kAnnounce), 100);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kDataBlocks), 200);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kDataDegrade), 201);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kShardHello), 220);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kCapacityDigest), 221);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kDelegateRequest), 222);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kDelegateReply), 223);
  EXPECT_EQ(static_cast<std::uint16_t>(FrameType::kDomainHandoff), 224);
}

TEST(WireCodec, FederationFramesRoundTrip) {
  wire::ShardHelloBody hello;
  hello.shard = 2;
  hello.epoch = 7;
  hello.standby = true;
  hello.endpoint = "dust-fed-2";
  wire::CapacityDigestBody digest;
  digest.shard = 1;
  digest.epoch = 3;
  digest.seq = 41;
  digest.spare = 123.5;
  digest.excess = 17.25;
  digest.busy_count = 4;
  digest.candidate_count = 9;
  wire::DelegateRequestBody request;
  request.shard = 0;
  request.epoch = 5;
  request.delegation_id = 99;
  request.busy = 12;
  request.amount = 6.5;
  request.agents = 2;
  request.platform_factor = 1.5;
  wire::DelegateReplyBody reply;
  reply.shard = 1;
  reply.epoch = 5;
  reply.delegation_id = 99;
  reply.granted = true;
  reply.destination = 30;
  reply.amount = 6.5;
  wire::DomainHandoffBody handoff;
  handoff.domain = 1;
  handoff.epoch = 6;
  handoff.endpoint = "dust-fed-1";

  const Frame frames[] = {
      wire::shard_hello_frame("dust-fed-2", "dust-fed-0", hello),
      wire::capacity_digest_frame("dust-fed-1", "dust-fed-0", digest),
      wire::delegate_request_frame("dust-fed-0", "dust-fed-1", request, 0xF0),
      wire::delegate_reply_frame("dust-fed-1", "dust-fed-0", reply, 0xF0),
      wire::domain_handoff_frame("dust-fed-1", "dust-fed-0", handoff),
  };
  for (const Frame& frame : frames) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    const DecodeResult decoded = decode_frame(bytes.data(), bytes.size());
    ASSERT_EQ(decoded.status, DecodeStatus::kOk)
        << wire::to_string(frame.type);
    EXPECT_EQ(decoded.frame.type, frame.type);
    EXPECT_EQ(decoded.frame.priority, sim::Priority::kNormal);
    EXPECT_EQ(encode_frame(decoded.frame), bytes)
        << wire::to_string(frame.type);
  }

  // Spot-check typed fields survive (byte identity already proves it, but a
  // field-level failure message is far easier to debug).
  const DecodeResult hello_rt = [&] {
    const std::vector<std::uint8_t> bytes = encode_frame(frames[0]);
    return decode_frame(bytes.data(), bytes.size());
  }();
  EXPECT_EQ(hello_rt.frame.shard_hello.shard, 2u);
  EXPECT_EQ(hello_rt.frame.shard_hello.epoch, 7u);
  EXPECT_TRUE(hello_rt.frame.shard_hello.standby);
  EXPECT_EQ(hello_rt.frame.shard_hello.endpoint, "dust-fed-2");
  const DecodeResult reply_rt = [&] {
    const std::vector<std::uint8_t> bytes = encode_frame(frames[3]);
    return decode_frame(bytes.data(), bytes.size());
  }();
  EXPECT_TRUE(reply_rt.frame.delegate_reply.granted);
  EXPECT_EQ(reply_rt.frame.delegate_reply.destination, 30u);
  EXPECT_EQ(reply_rt.frame.delegate_reply.delegation_id, 99u);
  EXPECT_EQ(reply_rt.frame.trace_id, 0xF0u);
}

TEST(WireCodec, DataFramesRoundTrip) {
  util::Rng rng(0xDA7A);
  for (int i = 0; i < 200; ++i) {
    Frame frame =
        rng.bernoulli(0.5)
            ? wire::data_blocks_frame("dust-streamer-1", "dust-collector",
                                      check::random_data_blocks_body(rng))
            : wire::degrade_frame("dust-streamer-1", "dust-collector",
                                  check::random_degrade_body(rng));
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    const DecodeResult decoded = decode_frame(bytes.data(), bytes.size());
    ASSERT_EQ(decoded.status, DecodeStatus::kOk) << "iteration " << i;
    EXPECT_EQ(decoded.frame.type, frame.type);
    EXPECT_EQ(encode_frame(decoded.frame), bytes) << "iteration " << i;
  }
}

TEST(WireCodec, GatherEncodeIsByteIdenticalToContiguousEncode) {
  // The zero-copy path must put exactly the same bytes on the wire as the
  // plain encoder — same layout, same streaming CRC.
  util::Rng rng(0x6A7437);
  for (int i = 0; i < 100; ++i) {
    Frame frame = wire::data_blocks_frame("dust-streamer-2", "dust-collector",
                                          check::random_data_blocks_body(rng));
    const std::vector<std::uint8_t> contiguous = encode_frame(frame);

    // Gather form: payloads move out of the frame into external storage the
    // segments borrow — the gather encoder rejects inline payload copies.
    std::vector<std::vector<std::uint8_t>> storage;
    std::vector<wire::PayloadRef> payloads;
    storage.reserve(frame.data_blocks.blocks.size());
    payloads.reserve(frame.data_blocks.blocks.size());
    for (wire::DataBlock& block : frame.data_blocks.blocks) {
      storage.push_back(std::move(block.payload));
      block.payload.clear();
      payloads.push_back(
          wire::PayloadRef{storage.back().data(), storage.back().size()});
    }
    const wire::GatherFrame gathered =
        wire::encode_data_blocks_gather(frame, payloads);

    std::vector<std::uint8_t> flattened = gathered.head;
    for (const wire::PayloadRef& segment : gathered.segments)
      flattened.insert(flattened.end(), segment.data, segment.data + segment.size);
    EXPECT_EQ(flattened, contiguous) << "iteration " << i;
    EXPECT_EQ(gathered.total_bytes(), contiguous.size());
  }
}

TEST(WireCodec, FrameBufferReassemblesArbitraryChunks) {
  util::Rng rng(0xBEEF);
  for (int round = 0; round < 20; ++round) {
    std::vector<Frame> frames;
    std::vector<std::uint8_t> stream;
    const std::size_t count = 1 + rng.below(6);
    for (std::size_t i = 0; i < count; ++i) {
      frames.push_back(check::random_frame(rng));
      const std::vector<std::uint8_t> bytes = encode_frame(frames.back());
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }

    wire::FrameBuffer buffer;
    std::size_t decoded_count = 0;
    std::size_t cursor = 0;
    while (cursor < stream.size() || true) {
      // Feed a random-sized chunk, then drain.
      if (cursor < stream.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.below(40), stream.size() - cursor);
        buffer.append(stream.data() + cursor, chunk);
        cursor += chunk;
      }
      while (true) {
        const DecodeResult decoded = buffer.next();
        if (decoded.status != DecodeStatus::kOk) {
          ASSERT_EQ(decoded.status, DecodeStatus::kNeedMoreData);
          break;
        }
        ASSERT_LT(decoded_count, frames.size());
        EXPECT_EQ(encode_frame(decoded.frame),
                  encode_frame(frames[decoded_count]));
        ++decoded_count;
      }
      if (cursor >= stream.size()) break;
    }
    EXPECT_EQ(decoded_count, frames.size());
    EXPECT_EQ(buffer.pending_bytes(), 0u);
  }
}

TEST(WireCodec, StatusAndTypeNamesAreStable) {
  EXPECT_STREQ(wire::to_string(DecodeStatus::kOk), "ok");
  EXPECT_STREQ(wire::to_string(DecodeStatus::kBadCrc), "bad_crc");
  EXPECT_STREQ(wire::to_string(FrameType::kStat), "stat");
  EXPECT_STREQ(wire::to_string(FrameType::kAnnounce), "announce");
  EXPECT_STREQ(wire::to_string(FrameType::kCapacityDigest), "capacity_digest");
  EXPECT_STREQ(wire::to_string(FrameType::kDelegateRequest),
               "delegate_request");
}

/// The bytewise reference the sliced CRC-32 must reproduce.
std::uint32_t crc32_bytewise(std::uint32_t state, const std::uint8_t* data,
                             std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
  }
  return state;
}

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(wire::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(wire::crc32(check, 0), 0u);
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  util::Rng rng(0xc4c32);
  std::vector<std::uint8_t> buffer(4096 + 8);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (int round = 0; round < 400; ++round) {
    const auto size = static_cast<std::size_t>(rng.below(4097));
    const auto offset = static_cast<std::size_t>(round % 8);
    const std::uint8_t* data = buffer.data() + offset;
    const std::uint32_t want = crc32_bytewise(0xFFFFFFFFu, data, size);
    ASSERT_EQ(wire::crc32_update(wire::crc32_init(), data, size), want)
        << size << "@" << offset;
    // Streaming over a split gives the same state as one pass.
    const auto split = static_cast<std::size_t>(rng.below(size + 1));
    ASSERT_EQ(wire::crc32_update(wire::crc32_update(wire::crc32_init(), data,
                                                    split),
                                 data + split, size - split),
              want);
  }
  for (std::size_t size = 0; size <= 24; ++size)
    for (std::size_t offset = 0; offset < 8; ++offset)
      ASSERT_EQ(wire::crc32_update(wire::crc32_init(), buffer.data() + offset,
                                   size),
                crc32_bytewise(0xFFFFFFFFu, buffer.data() + offset, size));
}

}  // namespace
}  // namespace dust
