#include "src/net/channel_transport.hpp"

#include <sched.h>

#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sdsm::net {

namespace {

using Clock = std::chrono::steady_clock;

inline void cpu_pause() {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

/// How long a receive spins before it blocks on the channel's condvar.
/// Spinning is a multi-core optimization: it takes the futex sleep/wake
/// off a request/response round trip when sender and receiver run in
/// parallel.  The budget is bounded by time, not by a pause count,
/// because a pause's cost varies several-fold across x86 parts.
///
/// Measured on a 4-vCPU 2.1 GHz Xeon VM with the 4-node benchmark
/// workloads (8 receiving threads on 4 CPUs):
///   - 5 us is the smallest budget that catches a reply in flight: the
///     in-process round trip is 1.5 us (p99 2.5 us) with it and 15 us
///     (the futex wake) with 0 or 2 us.
///   - Longer spins take CPU from nodes that still have work: pagerank-base
///     jobs run ~10% slower at 10 us and ~25% slower at 25 us; moldyn-opt
///     ~4% slower at 25 us and ~15% at 50 us.
///   - The former 100,000-pause budget (~1.7 ms per idle wait) made every
///     workload 4-8x slower, with three quarters of moldyn-opt's node
///     time in barriers.
constexpr std::chrono::microseconds kSpinBudget{5};

/// Pauses between two clock reads while spinning (~0.5 us of pauses per
/// ~30 ns clock read on the same Xeon).
constexpr int kPausesPerClockRead = 32;

/// CPUs this process may run on: its affinity mask, so a process confined
/// by taskset or a cpuset counts only what it was given.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// kSpinBudget, or zero on a single usable CPU.  There spinning inverts:
/// the receiver's spin burns the very timeslice the sender needs to
/// produce the message, so receivers block immediately.
Clock::duration spin_budget() {
  static const Clock::duration budget =
      usable_cpus() > 1 ? Clock::duration(kSpinBudget) : Clock::duration(0);
  return budget;
}

}  // namespace

ChannelTransport::ChannelTransport(std::uint32_t num_nodes, WireModel wire)
    : Transport(num_nodes, wire),
      num_nodes_(num_nodes),
      next_request_(num_nodes) {
  SDSM_REQUIRE(num_nodes >= 1);
  channels_.reserve(static_cast<std::size_t>(num_nodes) * kNumPorts);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    for (int p = 0; p < kNumPorts; ++p) {
      channels_.push_back(std::make_unique<Channel>());
    }
  }
}

ChannelTransport::Channel& ChannelTransport::channel(Port port, NodeId node) {
  SDSM_REQUIRE(node < num_nodes_);
  return *channels_[static_cast<std::size_t>(node) * kNumPorts +
                    static_cast<std::size_t>(port)];
}

void ChannelTransport::await_arrival(Channel& ch,
                                     std::unique_lock<std::mutex>& lk,
                                     Clock::time_point& spin_end) {
  const std::uint64_t seen = ch.arrivals.load(std::memory_order_relaxed);
  const Clock::duration budget = spin_budget();
  if (budget != Clock::duration(0)) {
    const auto now = Clock::now();
    if (spin_end == Clock::time_point{}) spin_end = now + budget;
    if (now < spin_end) {
      lk.unlock();
      bool arrived = false;
      do {
        for (int i = 0; i < kPausesPerClockRead && !arrived; ++i) {
          arrived = ch.arrivals.load(std::memory_order_relaxed) != seen;
          cpu_pause();
        }
      } while (!arrived && Clock::now() < spin_end);
      lk.lock();
    }
  }
  // Re-checked under the lock, which deliver() holds while it bumps the
  // count, so an arrival between this check and the wait still wakes it.
  if (ch.arrivals.load(std::memory_order_relaxed) == seen) ch.cv.wait(lk);
}

void ChannelTransport::count_send(const Message& msg) {
  if (msg.type >= kControlSync || msg.src == msg.dst) return;
  stats_.node_messages(msg.src).add(1);
  stats_.node_bytes(msg.src).add(msg.size_bytes());
}

void ChannelTransport::deliver(Port port, Message msg, Clock::time_point at) {
  Channel& ch = channel(port, msg.dst);
  {
    std::lock_guard<std::mutex> g(ch.mu);
    ch.q.push_back(Channel::Entry{std::move(msg), at});
    ch.arrivals.fetch_add(1, std::memory_order_relaxed);
  }
  ch.cv.notify_all();
}

Message ChannelTransport::recv(Port port, NodeId node) {
  Channel& ch = channel(port, node);
  Clock::time_point spin_end{};
  std::unique_lock<std::mutex> lk(ch.mu);
  for (;;) {
    if (ch.q.empty()) {
      await_arrival(ch, lk, spin_end);
      continue;
    }
    auto& front = ch.q.front();
    if (front.deliver_at <= Clock::now()) {
      Message m = std::move(front.msg);
      ch.q.pop_front();
      return m;
    }
    ch.cv.wait_until(lk, front.deliver_at);
  }
}

Message ChannelTransport::wait(const Ticket& t) {
  SDSM_REQUIRE(t.valid());
  Channel& ch = channel(Port::kReply, t.node);
  Clock::time_point spin_end{};
  std::unique_lock<std::mutex> lk(ch.mu);
  for (;;) {
    const auto now = Clock::now();
    std::optional<Clock::time_point> earliest_pending;
    for (auto it = ch.q.begin(); it != ch.q.end(); ++it) {
      if (it->msg.request_id != t.request_id) continue;
      if (it->deliver_at <= now) {
        Message m = std::move(it->msg);
        ch.q.erase(it);
        return m;
      }
      earliest_pending = it->deliver_at;
      break;  // entries for one request id arrive in order; wait for this one
    }
    if (earliest_pending) {
      ch.cv.wait_until(lk, *earliest_pending);
    } else {
      // Replies for other tickets do not end the wait: spin (or sleep)
      // on until a new arrival, then rescan for this one.
      await_arrival(ch, lk, spin_end);
    }
  }
}

std::optional<Message> ChannelTransport::poll(const Ticket& t) {
  SDSM_REQUIRE(t.valid());
  Channel& ch = channel(Port::kReply, t.node);
  std::lock_guard<std::mutex> g(ch.mu);
  const auto now = Clock::now();
  for (auto it = ch.q.begin(); it != ch.q.end(); ++it) {
    if (it->msg.request_id != t.request_id) continue;
    if (it->deliver_at > now) return std::nullopt;  // modelled cost unpaid
    Message m = std::move(it->msg);
    ch.q.erase(it);
    return m;
  }
  return std::nullopt;
}

std::uint64_t ChannelTransport::next_request_id(NodeId node) {
  SDSM_REQUIRE(node < num_nodes_);
  return next_request_[node].v.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace sdsm::net
