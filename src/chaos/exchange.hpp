// ExchangeNode: the minimal node-communication surface the inspector and
// executor need — who am I, how many peers, an all-to-all for the
// inspector's discovery phases, and a schedule-driven sparse exchange for
// the executor's gather/scatter.
//
// The exchange discipline is written once, here: split-phase sends, drain
// in arrival order, a per-peer stash for a fast peer's next-phase traffic.
// A fabric supplies only the two payload primitives.  ChaosNode
// (src/chaos/chaos_runtime.hpp) is the message-passing fabric;
// plan::DsmExchange (src/api/plan/dsm_exchange.hpp) carries the same
// exchanges over a DSM node's app-data plane so a hybrid run can
// interleave inspector gathers with the page protocol on one transport —
// with the same message count on either fabric.  Everything above this
// interface — build_schedule, localize_references, gather, scatter — is
// fabric-agnostic.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/types.hpp"

namespace sdsm::chaos {

class ExchangeNode {
 public:
  virtual ~ExchangeNode() = default;

  virtual NodeId id() const = 0;
  virtual std::uint32_t num_nodes() const = 0;

  /// All-to-all personalized exchange: sends to_peers[p] to node p (own
  /// slot ignored) and returns the payload received from every peer (own
  /// slot empty).  Every pair exchanges a message even when empty — the
  /// request-discovery phase of the inspector cannot know in advance who
  /// needs nothing.
  std::vector<std::vector<std::uint8_t>> all_to_all(
      std::vector<std::vector<std::uint8_t>> to_peers);

  /// Sparse exchange used by the executor: sends only the non-empty
  /// payloads; `recv_from[p]` says whether a message from p is expected
  /// (both sides know this from the communication schedule).
  std::vector<std::vector<std::uint8_t>> sparse_exchange(
      std::vector<std::vector<std::uint8_t>> to_peers,
      const std::vector<bool>& recv_from);

 protected:
  /// Sends one payload to `peer` (never this node).
  virtual void send_payload(NodeId peer, std::vector<std::uint8_t> payload) = 0;
  /// Blocks for the next payload from any peer, in arrival order.
  virtual std::pair<NodeId, std::vector<std::uint8_t>> recv_payload() = 0;

 private:
  std::vector<std::vector<std::uint8_t>> exchange(
      std::vector<std::vector<std::uint8_t>> to_peers,
      const std::vector<bool>& recv_from, bool send_empty);

  // Payloads that arrived ahead of their exchange (a fast peer already in
  // its next phase).  Served before the wire, preserving per-peer FIFO.
  std::vector<std::deque<std::vector<std::uint8_t>>> stash_;
};

}  // namespace sdsm::chaos
