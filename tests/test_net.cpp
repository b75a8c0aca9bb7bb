// Tests for the message fabric: ordering, reply matching, stats
// accounting, the split-phase post/wait/poll path, and the wire-cost
// model.  Behaviors shared by every transport run against both InProc and
// Socket through the make_transport factory; the wire-model/jitter tests
// are in-process only (the socket fabric measures real cost instead of
// simulating one).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/common/timer.hpp"
#include "src/net/network.hpp"
#include "src/net/socket_transport.hpp"
#include "src/net/transport.hpp"

namespace sdsm::net {
namespace {

Message make(std::uint32_t type, NodeId src, NodeId dst, std::uint64_t rid = 0,
             std::size_t payload = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.request_id = rid;
  m.payload.assign(payload, std::uint8_t{0xab});
  return m;
}

// ---------------------------------------------------------------------------
// Transport-generic behaviors, run against both fabrics.
// ---------------------------------------------------------------------------

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  std::unique_ptr<Transport> make_net(std::uint32_t nodes,
                                      WireModel wire = {}) {
    return make_transport(GetParam(), nodes, wire);
  }
};

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values(TransportKind::kInProc,
                                           TransportKind::kSocket),
                         [](const auto& info) {
                           return std::string(transport_name(info.param));
                         });

TEST_P(TransportTest, SendRecvBasic) {
  auto net = make_net(2);
  net->send(Port::kService, make(7, 0, 1, 0, 16));
  Message m = net->recv(Port::kService, 1);
  EXPECT_EQ(m.type, 7u);
  EXPECT_EQ(m.src, 0u);
  EXPECT_EQ(m.payload.size(), 16u);
}

TEST_P(TransportTest, PayloadBytesSurviveTheWire) {
  auto net = make_net(2);
  Message out = make(3, 0, 1, 9);
  out.payload = {0x00, 0x01, 0xfe, 0xff, 0x42};
  net->send(Port::kReply, Message(out));
  Message in = net->recv(Port::kReply, 1);
  EXPECT_EQ(in.payload, out.payload);
  EXPECT_EQ(in.request_id, 9u);
}

TEST_P(TransportTest, FifoOrderPerChannel) {
  auto net = make_net(2);
  for (std::uint32_t i = 0; i < 100; ++i) {
    net->send(Port::kService, make(i, 0, 1));
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(net->recv(Port::kService, 1).type, i);
  }
}

TEST_P(TransportTest, FifoOrderWithConcurrentSenders) {
  // Messages from different sources may interleave, but each source's own
  // sequence must arrive in order.
  auto net = make_net(3);
  constexpr std::uint32_t kPerSender = 200;
  auto sender = [&](NodeId src) {
    for (std::uint32_t i = 0; i < kPerSender; ++i) {
      net->send(Port::kService, make(i, src, 2));
    }
  };
  std::thread t0([&] { sender(0); });
  std::thread t1([&] { sender(1); });
  std::uint32_t next[2] = {0, 0};
  for (std::uint32_t i = 0; i < 2 * kPerSender; ++i) {
    Message m = net->recv(Port::kService, 2);
    ASSERT_LT(m.src, 2u);
    EXPECT_EQ(m.type, next[m.src]) << "from node " << m.src;
    ++next[m.src];
  }
  t0.join();
  t1.join();
}

TEST_P(TransportTest, TryRecvEmptyReturnsNullopt) {
  auto net = make_net(2);
  EXPECT_FALSE(net->try_recv(Port::kReply, 0).has_value());
  net->send(Port::kReply, make(1, 1, 0));
  // The socket transport delivers asynchronously; wait for arrival.
  std::optional<Message> m;
  for (int i = 0; i < 10000 && !m; ++i) {
    m = net->try_recv(Port::kReply, 0);
    if (!m) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 1u);
}

TEST_P(TransportTest, RecvReplyMatchesOutOfOrder) {
  auto net = make_net(2);
  net->send(Port::kReply, make(1, 1, 0, /*rid=*/55));
  net->send(Port::kReply, make(2, 1, 0, /*rid=*/44));
  Message m44 = net->recv_reply(0, 44);
  EXPECT_EQ(m44.type, 2u);
  Message m55 = net->recv_reply(0, 55);
  EXPECT_EQ(m55.type, 1u);
}

TEST_P(TransportTest, RecvReplyBlocksUntilArrival) {
  auto net = make_net(2);
  std::thread sender([&net] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    net->send(Port::kReply, make(9, 1, 0, 77));
  });
  Timer t;
  Message m = net->recv_reply(0, 77);
  EXPECT_EQ(m.type, 9u);
  EXPECT_GE(t.elapsed_ms(), 20.0);
  sender.join();
}

TEST_P(TransportTest, StatsCountMessagesAndBytes) {
  auto net = make_net(3);
  net->send(Port::kService, make(1, 0, 1, 0, 100));
  net->send(Port::kService, make(1, 0, 2, 0, 50));
  net->send(Port::kReply, make(1, 2, 0, 0, 25));
  EXPECT_EQ(net->stats().messages(), 3u);
  EXPECT_EQ(net->stats().bytes(), 175u);
  EXPECT_EQ(net->stats().node_messages(0).get(), 2u);
  EXPECT_EQ(net->stats().node_bytes(2).get(), 25u);
}

TEST_P(TransportTest, LoopbackIsNotCounted) {
  auto net = make_net(2);
  net->send(Port::kService, make(1, 1, 1, 0, 64));
  EXPECT_EQ(net->recv(Port::kService, 1).payload.size(), 64u);
  // Delivered, but not counted: a node's message to itself is a local
  // operation, not traffic on the switch.
  EXPECT_EQ(net->stats().messages(), 0u);
  EXPECT_EQ(net->stats().bytes(), 0u);
}

TEST_P(TransportTest, NextRequestIdsAreUniquePerNode) {
  auto net = make_net(2);
  EXPECT_EQ(net->next_request_id(0), 1u);
  EXPECT_EQ(net->next_request_id(0), 2u);
  EXPECT_EQ(net->next_request_id(1), 1u);
}

TEST_P(TransportTest, StopAllServicesDeliversControlStop) {
  auto net = make_net(3);
  net->stop_all_services();
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(net->recv(Port::kService, n).type, kControlStop);
  }
  // Control messages are not counted.
  EXPECT_EQ(net->stats().messages(), 0u);
}

TEST_P(TransportTest, ConcurrentPingPong) {
  auto net = make_net(2);
  constexpr int kRounds = 2000;
  std::thread server([&net] {
    for (int i = 0; i < kRounds; ++i) {
      Message req = net->recv(Port::kService, 1);
      Message rep = make(req.type + 1, 1, 0, req.request_id);
      net->send(Port::kReply, std::move(rep));
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    const auto rid = net->next_request_id(0);
    net->send(Port::kService, make(static_cast<std::uint32_t>(i), 0, 1, rid));
    Message rep = net->recv_reply(0, rid);
    EXPECT_EQ(rep.type, static_cast<std::uint32_t>(i) + 1);
  }
  server.join();
  EXPECT_EQ(net->stats().messages(), 2u * kRounds);
}

// --- Split-phase completion semantics --------------------------------------

TEST_P(TransportTest, PostStampsFreshRequestIds) {
  auto net = make_net(2);
  const Ticket t1 = net->post(make(1, 0, 1));
  const Ticket t2 = net->post(make(2, 0, 1));
  EXPECT_TRUE(t1.valid());
  EXPECT_TRUE(t2.valid());
  EXPECT_EQ(t1.node, 0u);
  EXPECT_NE(t1.request_id, t2.request_id);
  // Both requests are already on the wire.
  EXPECT_EQ(net->recv(Port::kService, 1).type, 1u);
  EXPECT_EQ(net->recv(Port::kService, 1).type, 2u);
}

TEST_P(TransportTest, PostThenWaitCompletesWithMatchingReply) {
  auto net = make_net(2);
  std::thread server([&net] {
    Message req = net->recv(Port::kService, 1);
    net->send(Port::kReply, make(req.type + 100, 1, 0, req.request_id));
  });
  const Ticket t = net->post(make(5, 0, 1));
  Message reply = net->wait(t);
  EXPECT_EQ(reply.type, 105u);
  EXPECT_EQ(reply.request_id, t.request_id);
  server.join();
}

TEST_P(TransportTest, PollIsNonBlockingAndConsumesExactlyOnce) {
  auto net = make_net(2);
  const Ticket t = net->post(make(5, 0, 1));
  // Nothing has replied: poll must not block and must not complete.
  EXPECT_FALSE(net->poll(t).has_value());
  Message req = net->recv(Port::kService, 1);
  net->send(Port::kReply, make(42, 1, 0, req.request_id));
  std::optional<Message> got;
  for (int i = 0; i < 10000 && !got; ++i) {
    got = net->poll(t);
    if (!got) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 42u);
  // The completion was consumed; a second poll finds nothing.
  EXPECT_FALSE(net->poll(t).has_value());
}

TEST_P(TransportTest, WaitAllReturnsInTicketOrderWhateverArrivalOrder) {
  auto net = make_net(2);
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < 8; ++i) {
    tickets.push_back(net->post(make(i, 0, 1)));
  }
  std::thread server([&net] {
    // Reply to the 8 requests in reverse arrival order.
    std::vector<Message> reqs;
    for (int i = 0; i < 8; ++i) reqs.push_back(net->recv(Port::kService, 1));
    for (auto it = reqs.rbegin(); it != reqs.rend(); ++it) {
      net->send(Port::kReply, make(it->type * 10, 1, 0, it->request_id));
    }
  });
  const auto replies = net->wait_all(tickets);
  ASSERT_EQ(replies.size(), tickets.size());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(replies[i].type, i * 10);
    EXPECT_EQ(replies[i].request_id, tickets[i].request_id);
  }
  server.join();
}

TEST_P(TransportTest, SplitPhaseOverlapsManyOutstandingRequests) {
  // One slow server, many outstanding requests: with split-phase posting
  // the requests all queue at once and the total cost is one round of
  // service, not requests x round trips.
  auto net = make_net(3);
  constexpr int kOutstanding = 64;
  auto serve = [&net](NodeId me) {
    for (int i = 0; i < kOutstanding / 2; ++i) {
      Message req = net->recv(Port::kService, me);
      net->send(Port::kReply, make(req.type + 1, me, req.src, req.request_id));
    }
  };
  std::thread s1([&] { serve(1); });
  std::thread s2([&] { serve(2); });
  std::vector<Ticket> tickets;
  for (int i = 0; i < kOutstanding; ++i) {
    tickets.push_back(
        net->post(make(static_cast<std::uint32_t>(i), 0, 1 + (i % 2))));
  }
  const auto replies = net->wait_all(tickets);
  for (int i = 0; i < kOutstanding; ++i) {
    EXPECT_EQ(replies[i].type, static_cast<std::uint32_t>(i) + 1);
  }
  s1.join();
  s2.join();
  EXPECT_EQ(net->stats().messages(), 2u * kOutstanding);
}

// ---------------------------------------------------------------------------
// InProc-vs-Socket parity: identical traffic accounting for one scripted
// request/reply pattern (the kernel-level parity lives in test_api.cpp).
// ---------------------------------------------------------------------------

TEST(TransportParity, ScriptedExchangeCountsIdenticallyOnBothFabrics) {
  std::uint64_t messages[2], bytes[2];
  int k = 0;
  for (const TransportKind kind :
       {TransportKind::kInProc, TransportKind::kSocket}) {
    auto net = make_transport(kind, 4);
    std::vector<std::thread> servers;
    for (NodeId s = 1; s < 4; ++s) {
      servers.emplace_back([&net, s] {
        for (;;) {
          Message req = net->recv(Port::kService, s);
          if (req.type == kControlStop) return;
          net->send(Port::kReply, make(req.type, s, req.src, req.request_id,
                                       req.payload.size() * 2));
        }
      });
    }
    std::vector<Ticket> tickets;
    for (int i = 0; i < 30; ++i) {
      tickets.push_back(net->post(
          make(static_cast<std::uint32_t>(i), 0,
               static_cast<NodeId>(1 + i % 3), 0, 16 + (i % 5) * 8)));
    }
    net->wait_all(tickets);
    net->stop_all_services();
    for (auto& t : servers) t.join();
    messages[k] = net->stats().messages();
    bytes[k] = net->stats().bytes();
    ++k;
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

// ---------------------------------------------------------------------------
// Wire model and jitter: in-process only (the socket fabric's wire cost is
// real, not simulated).
// ---------------------------------------------------------------------------

TEST(Network, WireModelDelaysDelivery) {
  WireModel wire;
  wire.latency_us = 20000;  // 20 ms
  InProcTransport net(2, wire);
  net.send(Port::kService, make(1, 0, 1));
  Timer t;
  net.recv(Port::kService, 1);
  EXPECT_GE(t.elapsed_ms(), 10.0);
}

TEST(Network, WireModelChargesPerKilobyte) {
  WireModel wire;
  wire.us_per_kb = 10000;  // 10 ms per KB
  InProcTransport net(2, wire);
  net.send(Port::kService, make(1, 0, 1, 0, 2048));
  Timer t;
  net.recv(Port::kService, 1);
  EXPECT_GE(t.elapsed_ms(), 10.0);  // 2 KB -> ~20 ms
}

TEST(Network, ZeroWireModelDeliversImmediately) {
  InProcTransport net(2);
  net.send(Port::kService, make(1, 0, 1));
  Timer t;
  net.recv(Port::kService, 1);
  EXPECT_LT(t.elapsed_ms(), 5.0);
}

TEST(Network, JitterStillDeliversEverything) {
  WireModel wire;
  wire.jitter_us = 500;
  wire.jitter_seed = 123;
  InProcTransport net(2, wire);
  for (int i = 0; i < 200; ++i) {
    net.send(Port::kService, make(static_cast<std::uint32_t>(i), 0, 1));
  }
  int got = 0;
  for (int i = 0; i < 200; ++i) {
    net.recv(Port::kService, 1);
    ++got;
  }
  EXPECT_EQ(got, 200);
}

TEST(Network, ReplyMatchingUnderJitter) {
  // Jittered delivery scrambles reply readiness; wait() must still hand
  // each ticket its own reply, and wait_all must not mix them up.
  WireModel wire;
  wire.jitter_us = 300;
  wire.jitter_seed = 7;
  InProcTransport net(2, wire);
  std::thread server([&net] {
    for (int i = 0; i < 50; ++i) {
      Message req = net.recv(Port::kService, 1);
      net.send(Port::kReply, make(req.type + 1000, 1, 0, req.request_id));
    }
  });
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < 50; ++i) {
    tickets.push_back(net.post(make(i, 0, 1)));
  }
  const auto replies = net.wait_all(tickets);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(replies[i].type, i + 1000);
  }
  server.join();
}

}  // namespace
}  // namespace sdsm::net
