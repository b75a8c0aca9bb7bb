// Split-phase transport interface for the node-to-node fabric.
//
// The paper's tool path wins by turning fine-grained, fault-driven
// communication into bulk, schedulable operations.  The fabric API follows
// the same principle: the primary request primitive is split-phase —
//
//   Ticket t = transport.post(msg);      // request leaves immediately
//   ... other work: more posts, CPU ...  // request is serviced remotely
//   Message reply = transport.wait(t);   // block only at first use
//
// — so a caller can put every diff request of a Validate on the wire
// before it starts scanning indices or creating twins, and pay the wire
// latency only once, overlapped with that work.  The historical blocking
// calls (`recv_reply`) are trivial wrappers over wait() and remain for
// incremental migration.
//
// Completion contract:
//   - post() stamps the message with a fresh request id (unique per
//     source node) and sends it on the service port; the returned Ticket
//     names the reply that will arrive on the *source* node's reply port
//     with the same request id.
//   - A service-port message is handled either by the destination's
//     service thread, which recv()s it from the queue, or — when the node
//     registered an inline handler (serve_inline) — on the sending thread
//     inside send(), before send() returns.  TreadMarks runs the handler
//     in a SIGIO handler that interrupts the serving process; the inline
//     path is the in-process analogue without the interruption.  Either
//     way a handler only send()s, and only on reply ports: it never
//     waits (that would deadlock the request/response cycle), and the
//     in-process fabric aborts on a service-port send from inside an
//     inline handler.
//   - wait()/poll() may be called only by the compute thread of the node
//     named in the ticket (`ticket.node`) — reply ports are single-
//     consumer, exactly as in TreadMarks, where the faulting thread owns
//     the reply socket.
//   - Each ticket completes exactly once: wait() consumes the reply, and
//     waiting twice on the same ticket blocks forever.  wait_all()
//     consumes a batch in whatever order the replies arrive.
//   - send()/post() are async-signal-safe in the restricted sense the DSM
//     relies on: they may run inside a SIGSEGV handler because faults
//     only originate in application compute code, never inside fabric
//     code or an inline handler on the same thread, so the fault handler
//     can never observe its own thread holding a fabric lock or a
//     handler's lock.  wait() inside the fault handler is safe too: the
//     reply is produced either before post() returns (inline) or by
//     another node's service thread, which this fault never interrupts.
//
// Two implementations ship behind this interface (selected with
// make_transport / api::BackendOptions::transport / the --transport flag
// of the benches and examples):
//   - InProcTransport (src/net/network.hpp): today's in-process fabric —
//     FIFO channels, simulated wire-cost model, exact message accounting.
//   - SocketTransport (src/net/socket_transport.hpp): real TCP over
//     localhost with length-prefixed framing, one socket per node through
//     a switch thread; wire cost becomes measurement instead of
//     simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/net/message.hpp"
#include "src/net/netstats.hpp"
#include "src/net/wire_model.hpp"

namespace sdsm::net {

/// Which concrete fabric a runtime should build (see make_transport).
enum class TransportKind : std::uint8_t {
  kInProc,  ///< in-process channels + simulated wire model
  kSocket,  ///< TCP over localhost, measured wire cost
};

inline constexpr TransportKind kAllTransports[] = {TransportKind::kInProc,
                                                   TransportKind::kSocket};

/// Stable display name: "inproc" | "socket".
const char* transport_name(TransportKind kind);

/// Parses "inproc" | "socket" (case-insensitively); nullopt otherwise.
std::optional<TransportKind> parse_transport(std::string_view name);

/// Names one in-flight split-phase request.  Completion is the arrival of
/// the reply carrying `request_id` on `node`'s reply port.  Request ids
/// start at 1, so a default-constructed ticket is recognizably invalid.
struct Ticket {
  NodeId node = 0;
  std::uint64_t request_id = 0;

  bool valid() const { return request_id != 0; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual std::uint32_t num_nodes() const = 0;

  /// Sends `msg` to msg.dst on `port`.  Counts one message (loopback and
  /// kControlStop excluded).  Thread-safe; callable from a SIGSEGV handler
  /// under the contract in the header comment.
  virtual void send(Port port, Message msg) = 0;

  /// Blocking receive of the next delivered message for (node, port).
  virtual Message recv(Port port, NodeId node) = 0;

  /// Handles one service-port message; see serve_inline.
  using ServiceHandler = std::function<void(Message&)>;

  /// Offers to run `handler` on the sending thread, inside send(), for
  /// every later service-port message to `node`, instead of queueing it
  /// for recv().  Returns true when the fabric accepted; the node then
  /// needs no service thread.  An empty handler withdraws a registration.
  /// Call only while no thread sends to `node`.  The default refuses: a
  /// fabric whose sends arrive on a receive thread (socket, mesh) or pay
  /// a modelled wire cost keeps the queue and its service thread.
  virtual bool serve_inline(NodeId node, ServiceHandler handler);

  // --- Split phase ---------------------------------------------------------

  /// Stamps msg.request_id from msg.src's counter, sends it on the service
  /// port, and returns the ticket naming the future reply.
  Ticket post(Message msg);

  /// Blocks until the reply named by `t` arrives and consumes it.  Only
  /// the compute thread of t.node may call this (single-consumer reply
  /// port); a ticket may be waited on exactly once.
  virtual Message wait(const Ticket& t) = 0;

  /// Consumes and returns the reply named by `t` if it has already been
  /// delivered; nullopt otherwise.  Same caller contract as wait().
  virtual std::optional<Message> poll(const Ticket& t) = 0;

  /// Completes a batch: harvests already-arrived replies first, then
  /// blocks on the stragglers.  Result is in ticket order.
  std::vector<Message> wait_all(std::span<const Ticket> tickets);

  // --- Blocking wrappers (the pre-split-phase API) -------------------------

  /// Blocking receive of the reply with `request_id` on `node`'s reply
  /// port.  Equivalent to wait({node, request_id}).
  Message recv_reply(NodeId node, std::uint64_t request_id) {
    return wait(Ticket{node, request_id});
  }

  /// Allocates a request id unique within `node` (post() does this
  /// automatically; exposed for call sites that build messages by hand).
  virtual std::uint64_t next_request_id(NodeId node) = 0;

  /// Sends kControlStop to node `n`'s service port.  In process mode each
  /// worker stops only the services it hosts — stopping a peer's service
  /// would tear the mesh down under it.  An inline handler receives the
  /// stop like any other message (the DSM's ignores it).
  void stop_service(NodeId n);

  /// Sends kControlStop to every service port (used at shutdown).
  void stop_all_services();

  NetStats& stats() { return stats_; }
  const WireModel& wire() const { return wire_; }

 protected:
  Transport(std::uint32_t num_nodes, WireModel wire)
      : wire_(wire), stats_(num_nodes) {}

  const WireModel wire_;
  NetStats stats_;
};

/// Factory over the concrete transports.  `wire` is simulated by the
/// in-process fabric and ignored (cost is measured, not modelled) by the
/// socket fabric.
std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          std::uint32_t num_nodes,
                                          WireModel wire = {});

}  // namespace sdsm::net
