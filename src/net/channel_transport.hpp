// Shared delivery machinery for Transport implementations.
//
// Both concrete fabrics end up with the same receive-side shape: per
// (node, port) FIFO queues consumed by at most one thread each, blocking
// receive after a spin bounded by time, and reply matching by request id for
// the split-phase wait/poll path.  ChannelTransport implements all of
// that; a concrete transport only decides how a sent message reaches
// deliver() — directly (in-process) or through real sockets (a demux
// thread per node).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "src/net/transport.hpp"

namespace sdsm::net {

class ChannelTransport : public Transport {
 public:
  std::uint32_t num_nodes() const override { return num_nodes_; }

  Message recv(Port port, NodeId node) override;
  Message wait(const Ticket& t) override;
  std::optional<Message> poll(const Ticket& t) override;
  std::uint64_t next_request_id(NodeId node) override;

 protected:
  using Clock = std::chrono::steady_clock;

  ChannelTransport(std::uint32_t num_nodes, WireModel wire);

  /// Hands a message to the receive side of (msg.dst, port).  `at` is the
  /// delivery time: Clock::now() for real transports, now + modelled cost
  /// for the in-process fabric.  Thread-safe.
  void deliver(Port port, Message msg, Clock::time_point at);

  /// The message/byte accounting shared by every transport: each request
  /// and each reply counts as one message (the paper's metric), loopback
  /// and control traffic do not (a node's request to itself is a local
  /// function call, not traffic on the switch).
  void count_send(const Message& msg);

 private:
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    struct Entry {
      Message msg;
      Clock::time_point deliver_at;
    };
    std::deque<Entry> q;
    /// Messages ever delivered, bumped under `mu`; the spin phase of a
    /// receive polls it without the lock (see await_arrival).
    std::atomic<std::uint64_t> arrivals{0};
  };

  Channel& channel(Port port, NodeId node);

  /// With `lk` holding ch.mu, returns once a message has been delivered to
  /// `ch` since the call, or on a spurious wakeup.  Spins with the lock
  /// released until `spin_end` (set to now + the spin budget on a
  /// receive's first call), then blocks on ch.cv.
  static void await_arrival(Channel& ch, std::unique_lock<std::mutex>& lk,
                            Clock::time_point& spin_end);

  const std::uint32_t num_nodes_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [node * kNumPorts + port]
  struct alignas(64) RequestCounter {
    std::atomic<std::uint64_t> v{1};
  };
  std::vector<RequestCounter> next_request_;
};

}  // namespace sdsm::net
