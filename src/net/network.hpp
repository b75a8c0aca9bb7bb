// In-process message-passing fabric connecting the simulated nodes — the
// default net::Transport implementation (TransportKind::kInProc).
//
// This substrate replaces the paper's UDP-over-SP2-switch transport.  It
// provides:
//   - reliable delivery with per-channel FIFO ordering,
//   - the split-phase post/wait/poll request path plus blocking receive
//     and reply matching (see src/net/transport.hpp for the completion
//     contract: who may call wait, single-consumer reply ports, and why
//     send/post/wait stay safe inside the DSM's SIGSEGV handler),
//   - exact message/byte accounting (each request and each reply counts as
//     one message, matching the "Messages" columns of Tables 1 and 2),
//   - an optional wire-cost model (fixed per-message latency plus per-KB
//     cost) so that scaled-down runs retain SP2-like communication/compute
//     ratios, and
//   - optional seeded delivery jitter for concurrency stress tests.
//
// Without a wire model the fabric serves inline: a node that registers a
// service handler (serve_inline) has each service-port message handled on
// the sending thread inside send(), after the same accounting, so it
// runs no service thread.  With a wire model every message is queued
// until its modelled delivery time and a service thread consumes it.
//
// The sibling SocketTransport (src/net/socket_transport.hpp) carries the
// same traffic over real TCP sockets; select between them with
// net::make_transport, api::BackendOptions::transport, or the --transport
// flag of the benches and examples.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/net/channel_transport.hpp"

namespace sdsm::net {

class InProcTransport final : public ChannelTransport {
 public:
  explicit InProcTransport(std::uint32_t num_nodes, WireModel wire = {});

  void send(Port port, Message msg) override;

  /// Accepts the handler unless the wire model is enabled: a modelled
  /// delivery time cannot be honoured by a handler that runs at once.
  bool serve_inline(NodeId node, ServiceHandler handler) override;

 private:
  Clock::time_point deliver_time(std::size_t payload_bytes);

  /// Registered inline handlers by node (empty: queue for recv()).
  std::vector<ServiceHandler> handlers_;

  std::mutex jitter_mu_;
  std::uint64_t jitter_state_;
};

}  // namespace sdsm::net
