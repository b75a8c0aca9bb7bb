#include "src/net/network.hpp"

namespace sdsm::net {

namespace {

/// Inline handlers running on this thread.  A handler may send only on
/// reply ports: a service-port send from inside one would nest a second
/// handler, which could wait on a lock its caller holds.
thread_local int t_inline_depth = 0;

}  // namespace

InProcTransport::InProcTransport(std::uint32_t num_nodes, WireModel wire)
    : ChannelTransport(num_nodes, wire),
      handlers_(num_nodes),
      jitter_state_(wire.jitter_seed) {}

bool InProcTransport::serve_inline(NodeId node, ServiceHandler handler) {
  SDSM_REQUIRE(node < num_nodes());
  if (wire_.enabled()) return false;
  handlers_[node] = std::move(handler);
  return true;
}

InProcTransport::Clock::time_point InProcTransport::deliver_time(
    std::size_t payload_bytes) {
  if (!wire_.enabled()) return Clock::now();
  double jitter01 = 0.0;
  if (wire_.jitter_us > 0) {
    // SplitMix64 step under a lock; jitter is a test-only feature, so the
    // lock is acceptable and keeps the sequence reproducible.
    std::lock_guard<std::mutex> g(jitter_mu_);
    std::uint64_t z = (jitter_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    jitter01 = static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
  }
  return Clock::now() + wire_.cost(payload_bytes, jitter01);
}

void InProcTransport::send(Port port, Message msg) {
  SDSM_REQUIRE(msg.dst < num_nodes());
  if (port == Port::kService) {
    SDSM_REQUIRE_MSG(t_inline_depth == 0,
                     "inline service handler sent on a service port");
  }
  count_send(msg);
  if (port == Port::kService && handlers_[msg.dst]) {
    ++t_inline_depth;
    handlers_[msg.dst](msg);
    --t_inline_depth;
    return;
  }
  const auto at = deliver_time(msg.size_bytes());
  deliver(port, std::move(msg), at);
}

}  // namespace sdsm::net
