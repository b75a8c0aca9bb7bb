// Message representation for the in-process fabric.
//
// The fabric plays the role of the IBM SP2 high-performance switch in the
// paper: a reliable, FIFO-per-pair transport between nodes.  Message `type`
// values are owned by the layers above (core DSM protocol, CHAOS executor);
// the fabric itself interprets only kControlStop, which shuts down a
// service loop.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.hpp"

namespace sdsm::net {

/// Reserved message type that asks a service loop to exit.
inline constexpr std::uint32_t kControlStop = 0xFFFFFFFFu;

/// Reserved message type for the quiescence fence (DsmNode::quiesce_fence):
/// a control-plane rendezvous that, like kControlStop, is not traffic on the
/// switch and is excluded from the message/byte accounting.
inline constexpr std::uint32_t kControlSync = 0xFFFFFFFEu;

/// Each node owns two logical ports, mirroring TreadMarks' split between the
/// request socket (served by the SIGIO handler; here by a service thread or
/// an inline handler, see Transport::serve_inline) and the reply path
/// consumed by the faulting compute thread.
enum class Port : std::uint8_t {
  kService = 0,  ///< incoming requests, handled by the node's handlers
  kReply = 1,    ///< incoming replies, consumed by the compute thread
};

inline constexpr int kNumPorts = 2;

struct Message {
  std::uint32_t type = 0;
  NodeId src = 0;
  NodeId dst = 0;
  /// Correlates a reply with its request.  Unique per requesting node.
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;

  std::size_t size_bytes() const { return payload.size(); }
};

}  // namespace sdsm::net
