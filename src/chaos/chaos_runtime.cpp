#include "src/chaos/chaos_runtime.hpp"

namespace sdsm::chaos {

namespace {

// Message types local to the chaos fabric.
constexpr std::uint32_t kData = 1;
constexpr std::uint32_t kBarrierArrive = 2;
constexpr std::uint32_t kBarrierGo = 3;

}  // namespace

std::uint32_t ChaosNode::num_nodes() const { return rt_.num_nodes(); }

void ChaosNode::send_payload(NodeId peer, std::vector<std::uint8_t> payload) {
  net::Message m;
  m.type = kData;
  m.src = id_;
  m.dst = peer;
  m.payload = std::move(payload);
  rt_.net_->send(net::Port::kService, std::move(m));
}

std::pair<NodeId, std::vector<std::uint8_t>> ChaosNode::recv_payload() {
  net::Message m = rt_.net_->recv(net::Port::kService, id_);
  SDSM_ASSERT(m.type == kData);
  return {m.src, std::move(m.payload)};
}

void ChaosNode::barrier(const std::function<void()>& at_master) {
  rt_.barriers_.fetch_add(1, std::memory_order_relaxed);
  // Central counting barrier on node 0, using the reply port so that data
  // exchanges in flight on the service port are undisturbed.
  if (id_ == 0) {
    for (std::uint32_t i = 1; i < num_nodes(); ++i) {
      net::Message m = rt_.net_->recv(net::Port::kReply, 0);
      SDSM_ASSERT(m.type == kBarrierArrive);
    }
    if (at_master) at_master();
    for (NodeId p = 1; p < num_nodes(); ++p) {
      net::Message go;
      go.type = kBarrierGo;
      go.src = 0;
      go.dst = p;
      rt_.net_->send(net::Port::kReply, std::move(go));
    }
  } else {
    net::Message m;
    m.type = kBarrierArrive;
    m.src = id_;
    m.dst = 0;
    rt_.net_->send(net::Port::kReply, std::move(m));
    net::Message go = rt_.net_->recv(net::Port::kReply, id_);
    SDSM_ASSERT(go.type == kBarrierGo);
  }
}

void ChaosRuntime::run(const std::function<void(ChaosNode&)>& body) {
  std::vector<std::thread> workers;
  workers.reserve(num_nodes());
  for (NodeId n = 0; n < num_nodes(); ++n) {
    workers.emplace_back([this, n, &body] {
      ChaosNode node(*this, n);
      body(node);
    });
  }
  for (auto& t : workers) t.join();
}

}  // namespace sdsm::chaos
