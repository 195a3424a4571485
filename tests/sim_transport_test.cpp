#include "core/transport.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace dust::sim {
namespace {

// Tagged probes: a KeepaliveMsg (kNormal) carries its tag as seq, a
// TelemetryDataMsg (kLow, the only low-priority message) as owner.
core::Message normal(int tag) {
  return core::KeepaliveMsg{0, static_cast<std::uint64_t>(tag)};
}
core::Message low(int tag) {
  return core::TelemetryDataMsg{static_cast<graph::NodeId>(tag), {}};
}
int tag_of(const Envelope& envelope) {
  const auto* data = std::get_if<core::TelemetryDataMsg>(&envelope.message);
  if (data != nullptr) return static_cast<int>(data->owner);
  return static_cast<int>(std::get<core::KeepaliveMsg>(envelope.message).seq);
}

struct Fixture : ::testing::Test {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  std::vector<Envelope> received;

  std::uint64_t listen(const std::string& name) {
    return transport.register_endpoint(
        name, [this](const Envelope& e) { received.push_back(e); });
  }
};

TEST_F(Fixture, DeliversAfterLatency) {
  listen("b");
  transport.set_default_latency_ms(25);
  transport.send("a", "b", core::AckMsg{7, 1234});
  sim.run_until(24);
  EXPECT_TRUE(received.empty());
  sim.run_until(25);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, "a");
  EXPECT_EQ(std::get<core::AckMsg>(received[0].message).update_interval_ms,
            1234);
}

TEST_F(Fixture, UnknownEndpointCountsDropped) {
  transport.send("a", "ghost", normal(1));
  sim.run();
  EXPECT_EQ(transport.dropped(), 1u);
  EXPECT_EQ(transport.delivered(), 0u);
}

TEST_F(Fixture, UnregisterWhileInFlightDrops) {
  const std::uint64_t token = listen("b");
  transport.send("a", "b", normal(1));
  transport.unregister_endpoint("b", token);
  sim.run();
  EXPECT_EQ(transport.delivered(), 0u);
  EXPECT_EQ(transport.dropped(), 1u);
}

TEST_F(Fixture, FullLossDropsEverything) {
  listen("b");
  transport.set_loss_probability(1.0);
  for (int i = 0; i < 10; ++i) transport.send("a", "b", normal(i));
  sim.run();
  EXPECT_EQ(transport.dropped(), 10u);
  EXPECT_TRUE(received.empty());
}

TEST_F(Fixture, PartialLossApproximatesRate) {
  listen("b");
  transport.set_loss_probability(0.3);
  for (int i = 0; i < 2000; ++i) transport.send("a", "b", normal(i));
  sim.run();
  EXPECT_NEAR(static_cast<double>(transport.dropped()) / 2000.0, 0.3, 0.05);
}

TEST_F(Fixture, LossProbabilityValidated) {
  EXPECT_THROW(transport.set_loss_probability(-0.1), std::invalid_argument);
  EXPECT_THROW(transport.set_loss_probability(1.1), std::invalid_argument);
}

TEST_F(Fixture, PartitionBlocksDestination) {
  listen("b");
  listen("c");
  transport.set_partitioned("b", true);
  transport.send("a", "b", normal(1));
  transport.send("a", "c", normal(2));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].to, "c");
  transport.set_partitioned("b", false);
  transport.send("a", "b", normal(3));
  sim.run();
  EXPECT_EQ(received.size(), 2u);
}

TEST_F(Fixture, CongestionDropsOnlyLowPriority) {
  listen("b");
  transport.set_congested(true);
  transport.send("a", "b", low(1));
  transport.send("a", "b", normal(2));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(tag_of(received[0]), 2);
  transport.set_congested(false);
  transport.send("a", "b", low(3));
  sim.run();
  EXPECT_EQ(received.size(), 2u);
}

TEST_F(Fixture, LossAndPriorityInteract) {
  // Under congestion with lossy links, kLow traffic is shed entirely while
  // kNormal only pays the link loss rate — QoS shedding and stochastic loss
  // are independent drop causes.
  listen("b");
  transport.set_congested(true);
  transport.set_loss_probability(0.2);
  constexpr int kPerClass = 1000;
  for (int i = 0; i < kPerClass; ++i) {
    transport.send("a", "b", low(i));
    transport.send("a", "b", normal(i));
  }
  sim.run();
  std::size_t low_received = 0;
  for (const Envelope& e : received)
    if (core::message_priority(e.message) == Priority::kLow) ++low_received;
  EXPECT_EQ(low_received, 0u);  // congestion sheds every kLow message
  const double normal_rate =
      static_cast<double>(received.size()) / kPerClass;
  EXPECT_NEAR(normal_rate, 0.8, 0.05);  // kNormal survives minus link loss
  EXPECT_EQ(transport.dropped() + received.size(),
            static_cast<std::size_t>(2 * kPerClass));
}

TEST_F(Fixture, CountersConsistent) {
  listen("b");
  transport.send("a", "b", normal(1));
  transport.send("a", "ghost", normal(2));
  sim.run();
  EXPECT_EQ(transport.sent(), 2u);
  EXPECT_EQ(transport.delivered() + transport.dropped(), 2u);
}

TEST_F(Fixture, NullHandlerRejected) {
  EXPECT_THROW(transport.register_endpoint("x", nullptr),
               std::invalid_argument);
}

TEST_F(Fixture, HasEndpoint) {
  EXPECT_FALSE(transport.has_endpoint("b"));
  listen("b");
  EXPECT_TRUE(transport.has_endpoint("b"));
}

TEST_F(Fixture, MessagesPreserveFifoPerLatencyClass) {
  listen("b");
  for (int i = 0; i < 5; ++i) transport.send("a", "b", normal(i));
  sim.run();
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(tag_of(received[i]), i);
}

// Drop precedence is loss → partition → congestion: the loss draw is taken
// on *every* send, even ones a partition or congestion will discard anyway,
// so the RNG stream consumed by a run depends only on the message sequence.
// These tests pin that property — it is what makes dust::check fault
// schedules replay bit-identically under a fixed seed.
namespace {
std::vector<int> kept_deliveries(
    const std::function<void(Transport&, int)>& before_send) {
  Simulator sim;
  Transport transport{sim, util::Rng(42)};
  std::vector<int> delivered;
  transport.register_endpoint(
      "keep", [&](const Envelope& e) { delivered.push_back(tag_of(e)); });
  transport.register_endpoint("telemetry", [](const Envelope&) {});
  transport.set_loss_probability(0.4);
  for (int i = 0; i < 200; ++i) {
    before_send(transport, i);
    transport.send("a", "telemetry", low(i));
    transport.send("a", "keep", normal(i));
  }
  sim.run();
  return delivered;
}
}  // namespace

TEST(TransportPrecedence, CongestionTogglesNeverShiftLossDraws) {
  const std::vector<int> baseline =
      kept_deliveries([](Transport&, int) {});
  // Mid-run congestion sheds the interleaved kLow traffic; the kNormal
  // survivor set must be bit-identical because every kLow send still
  // consumed its loss draw before the congestion check.
  const std::vector<int> congested =
      kept_deliveries([](Transport& t, int i) {
        t.set_congested(i >= 50 && i < 150);
      });
  EXPECT_EQ(congested, baseline);
}

TEST(TransportPrecedence, PartitionTogglesNeverShiftLossDraws) {
  const std::vector<int> baseline =
      kept_deliveries([](Transport&, int) {});
  const std::vector<int> partitioned =
      kept_deliveries([](Transport& t, int i) {
        if (i == 50) t.set_partitioned("telemetry", true);
        if (i == 150) t.set_partitioned("telemetry", false);
      });
  EXPECT_EQ(partitioned, baseline);
}

TEST(TransportPrecedence, LossOutranksPartitionAndCongestionInAccounting) {
  // With loss = 1 everything is a loss-drop; healing the partition and
  // clearing congestion afterwards must not resurrect anything.
  Simulator sim;
  Transport transport{sim, util::Rng(7)};
  std::size_t received = 0;
  transport.register_endpoint("b",
                              [&](const Envelope&) { ++received; });
  transport.set_loss_probability(1.0);
  transport.set_partitioned("b", true);
  transport.set_congested(true);
  for (int i = 0; i < 20; ++i) transport.send("a", "b", low(i));
  transport.set_loss_probability(0.0);
  transport.set_partitioned("b", false);
  transport.set_congested(false);
  transport.send("a", "b", low(99));
  sim.run();
  EXPECT_EQ(transport.dropped(), 20u);
  EXPECT_EQ(received, 1u);
}

TEST(TransportFaultScript, AppliesEventsAtScheduledTimes) {
  Simulator sim;
  Transport transport{sim, util::Rng(5)};
  std::vector<int> delivered;
  transport.register_endpoint(
      "b", [&](const Envelope& e) { delivered.push_back(tag_of(e)); });

  using Kind = FaultEvent::Kind;
  schedule_fault_script(sim, transport,
                        {{1000, Kind::kLossProbability, 1.0, ""},
                         {2000, Kind::kLossProbability, 0.0, ""},
                         {3000, Kind::kPartition, 0.0, "b"},
                         {4000, Kind::kHeal, 0.0, "b"},
                         {5000, Kind::kCongestionOn, 0.0, ""},
                         {6000, Kind::kCongestionOff, 0.0, ""}});

  const auto probe = [&](TimeMs at, const core::Message& message) {
    sim.schedule_at(
        at, [&transport, message] { transport.send("a", "b", message); });
  };
  probe(500, normal(1));   // before any fault: delivered
  probe(1500, normal(2));  // full loss window: dropped
  probe(2500, normal(3));  // loss healed: delivered
  probe(3500, normal(4));  // partition window: dropped
  probe(4500, normal(5));  // partition healed: delivered
  probe(5500, low(6));     // congestion window: kLow dropped
  probe(5500, normal(7));  // ...but kNormal passes (§III-C QoS)
  probe(6500, low(8));     // congestion cleared: kLow delivered
  sim.run();
  EXPECT_EQ(delivered, (std::vector<int>{1, 3, 5, 7, 8}));
}

}  // namespace
}  // namespace dust::sim
