// chaos::ExchangeNode over a DSM node's application-data plane.
//
// This is the piece that lets inspector-built schedules execute while the
// rest of the run sits under the page protocol: build_schedule() and the
// executor gather/scatter templates only need an ExchangeNode, and here
// the messages travel as core kAppData payloads on the same transport,
// counted by the same NetStats as every protocol message.  The exchange
// discipline itself (split-phase sends, arrival-order drain, per-peer
// stash) is ExchangeNode's, shared with chaos::ChaosNode, so
// schedule-driven traffic has the same message count on either fabric.
#pragma once

#include <utility>
#include <vector>

#include "src/chaos/exchange.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::api::plan {

class DsmExchange final : public chaos::ExchangeNode {
 public:
  explicit DsmExchange(core::DsmNode& node) : node_(node) {}

  NodeId id() const override { return node_.id(); }
  std::uint32_t num_nodes() const override { return node_.num_nodes(); }

 private:
  void send_payload(NodeId peer, std::vector<std::uint8_t> payload) override {
    node_.send_app_data(peer, std::move(payload));
  }
  std::pair<NodeId, std::vector<std::uint8_t>> recv_payload() override {
    return node_.recv_app_data();
  }

  core::DsmNode& node_;
};

}  // namespace sdsm::api::plan
