#include "src/chaos/exchange.hpp"

#include "src/common/assert.hpp"

namespace sdsm::chaos {

std::vector<std::vector<std::uint8_t>> ExchangeNode::all_to_all(
    std::vector<std::vector<std::uint8_t>> to_peers) {
  std::vector<bool> recv_from(num_nodes(), true);
  recv_from[id()] = false;
  return exchange(std::move(to_peers), recv_from, /*send_empty=*/true);
}

std::vector<std::vector<std::uint8_t>> ExchangeNode::sparse_exchange(
    std::vector<std::vector<std::uint8_t>> to_peers,
    const std::vector<bool>& recv_from) {
  return exchange(std::move(to_peers), recv_from, /*send_empty=*/false);
}

std::vector<std::vector<std::uint8_t>> ExchangeNode::exchange(
    std::vector<std::vector<std::uint8_t>> to_peers,
    const std::vector<bool>& recv_from, bool send_empty) {
  const NodeId me = id();
  const std::uint32_t nprocs = num_nodes();
  SDSM_REQUIRE(to_peers.size() == nprocs);
  SDSM_REQUIRE(recv_from.size() == nprocs);
  stash_.resize(nprocs);
  // Split phase: every per-owner payload goes on the wire before any
  // reply is drained, so all peers' service work overlaps.
  for (NodeId p = 0; p < nprocs; ++p) {
    if (p == me) continue;
    // Whether to send is decided by *my* payload (the peer's receive mask
    // mirrors it by schedule symmetry); all_to_all sends even empty
    // payloads because receivers cannot know who has nothing for them.
    if (to_peers[p].empty() && !send_empty) continue;
    send_payload(p, std::move(to_peers[p]));
  }

  // Drain in arrival order, so a slow peer never delays consuming the
  // fast peers' payloads.  Per-peer FIFO still holds: at most one payload
  // per peer belongs to this exchange; anything beyond that (a fast
  // peer's next-phase traffic) is stashed for the next call, and the
  // stash is always served before the wire.
  std::vector<std::vector<std::uint8_t>> from_peers(nprocs);
  std::vector<bool> expected(nprocs, false);
  std::uint32_t need = 0;
  for (NodeId p = 0; p < nprocs; ++p) {
    if (p == me || !recv_from[p]) continue;
    if (!stash_[p].empty()) {
      from_peers[p] = std::move(stash_[p].front());
      stash_[p].pop_front();
    } else {
      expected[p] = true;
      ++need;
    }
  }
  while (need > 0) {
    auto [src, payload] = recv_payload();
    if (expected[src]) {
      from_peers[src] = std::move(payload);
      expected[src] = false;
      --need;
    } else {
      stash_[src].push_back(std::move(payload));
    }
  }
  return from_peers;
}

}  // namespace sdsm::chaos
