// QoS priority classes of the DUST control plane (§III-C).
//
// Kept apart from core/transport.hpp so headers that only need to *name* a
// priority (core/messages.hpp, wire/codec.hpp) don't pull in the simulator,
// RNG, and metrics machinery the full transport header depends on.
#pragma once

#include <cstdint>

namespace dust::sim {

/// QoS class. Offloaded monitoring data travels at kLow ("assigned the
/// lowest priority value", §III-C) and is dropped when the transport is
/// congested; control-plane messages ride kNormal.
enum class Priority : std::uint8_t { kLow, kNormal };

}  // namespace dust::sim
