// CHAOS-style message-passing runtime (Section 4 of the paper).
//
// Unlike the DSM runtime, there is no shared memory here: each node owns
// plain local arrays (its partition of the data, after remapping, plus a
// ghost region).  Nodes communicate through the same net::Transport fabric
// the DSM uses (in-process or socket, per the runtime's TransportKind), so
// message and byte counts are directly comparable — which is exactly the
// comparison Tables 1 and 2 make.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/buffer.hpp"
#include "src/common/types.hpp"
#include "src/chaos/exchange.hpp"
#include "src/net/transport.hpp"

namespace sdsm::chaos {

class ChaosRuntime;

/// Handle given to each node's compute function.  Implements ExchangeNode,
/// the fabric-agnostic surface the inspector/executor are written against,
/// over the service port of the runtime's transport.
class ChaosNode : public ExchangeNode {
 public:
  ChaosNode(ChaosRuntime& rt, NodeId id) : rt_(rt), id_(id) {}

  NodeId id() const override { return id_; }
  std::uint32_t num_nodes() const override;

  /// Barrier over all chaos nodes (central counter at node 0).  When
  /// at_master is non-null, node 0 runs it after every arrival and before
  /// any release: a quiescent point where no other node can be sending —
  /// used for deterministic statistics snapshots.
  void barrier(const std::function<void()>& at_master = {});

 private:
  void send_payload(NodeId peer, std::vector<std::uint8_t> payload) override;
  std::pair<NodeId, std::vector<std::uint8_t>> recv_payload() override;

  ChaosRuntime& rt_;
  const NodeId id_;
};

class ChaosRuntime {
 public:
  explicit ChaosRuntime(
      std::uint32_t num_nodes, net::WireModel wire = {},
      net::TransportKind transport = net::TransportKind::kInProc)
      : net_(net::make_transport(transport, num_nodes, wire)) {}

  std::uint32_t num_nodes() const { return net_->num_nodes(); }
  net::Transport& network() { return *net_; }

  std::uint64_t total_messages() { return net_->stats().messages(); }
  double total_megabytes() { return net_->stats().megabytes(); }
  /// Barrier arrivals summed over nodes (each global barrier counts once
  /// per node, at entry — so at a barrier's quiescent at_master point the
  /// barrier itself is fully counted).  Measured, like messages, so the
  /// bench's barriers_per_step column is never asserted by fiat.
  std::uint64_t total_barriers() const {
    return barriers_.load(std::memory_order_relaxed);
  }
  void reset_stats() {
    net_->stats().reset();
    barriers_.store(0, std::memory_order_relaxed);
  }

  /// Runs `body` on one thread per node and joins.
  void run(const std::function<void(ChaosNode&)>& body);

 private:
  friend class ChaosNode;
  std::unique_ptr<net::Transport> net_;
  std::atomic<std::uint64_t> barriers_{0};
};

}  // namespace sdsm::chaos
