#include "src/net/socket_transport.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/net/sockio.hpp"

namespace sdsm::net {

SocketTransport::SocketTransport(std::uint32_t num_nodes, WireModel wire)
    : ChannelTransport(num_nodes, wire),
      node_fd_(num_nodes, -1),
      switch_fd_(num_nodes, -1) {
  send_mu_.reserve(num_nodes);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    send_mu_.push_back(std::make_unique<std::mutex>());
  }

  // Ephemeral localhost listener; the backlog covers every node, so all
  // connects complete before the first accept.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  SDSM_REQUIRE(listener >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  SDSM_REQUIRE(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  SDSM_REQUIRE(::listen(listener, static_cast<int>(num_nodes)) == 0);
  socklen_t alen = sizeof(addr);
  SDSM_REQUIRE(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                             &alen) == 0);

  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SDSM_REQUIRE(fd >= 0);
    SDSM_REQUIRE(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0);
    set_nodelay(fd);
    // Hello: tells the switch which node this connection belongs to
    // (accept order is not guaranteed to match connect order).
    SDSM_REQUIRE(write_full(fd, &n, sizeof(n)));
    node_fd_[n] = fd;
  }
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    const int fd = ::accept(listener, nullptr, nullptr);
    SDSM_REQUIRE(fd >= 0);
    set_nodelay(fd);
    std::uint32_t who = 0;
    SDSM_REQUIRE(read_full(fd, &who, sizeof(who)));
    SDSM_REQUIRE(who < num_nodes && switch_fd_[who] == -1);
    switch_fd_[who] = fd;
  }
  ::close(listener);

  switch_thread_ = std::thread([this] { switch_loop(); });
  demux_threads_.reserve(num_nodes);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    demux_threads_.emplace_back([this, n] { demux_loop(n); });
  }
}

SocketTransport::~SocketTransport() {
  // Wake every blocked read with EOF: demux threads exit on their node
  // fd, which in turn EOFs the switch side of each connection, so the
  // switch loop drains out once its last connection closes.
  for (const int fd : node_fd_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : demux_threads_) t.join();
  if (switch_thread_.joinable()) switch_thread_.join();
  for (const int fd : node_fd_) {
    if (fd >= 0) ::close(fd);
  }
  for (const int fd : switch_fd_) {
    if (fd >= 0) ::close(fd);
  }
}

void SocketTransport::send(Port port, Message msg) {
  SDSM_REQUIRE(msg.dst < num_nodes());
  count_send(msg);

  // Loopback is delivered locally: the accounting already defines a
  // node's message to itself as a local function call, not traffic on
  // the switch, so it must not pay two real TCP hops either (barriers
  // and shutdown send such messages on every round).
  if (msg.src == msg.dst) {
    deliver(port, std::move(msg), Clock::now());
    return;
  }

  const std::vector<std::uint8_t> frame = encode_frame(port, msg);

  // One writer at a time per connection keeps frames contiguous on the
  // stream.  The sending node is msg.src (every caller sends as itself;
  // stop_all_services stamps src = dst = n).
  SDSM_REQUIRE(msg.src < num_nodes());
  std::lock_guard<std::mutex> g(*send_mu_[msg.src]);
  write_full(node_fd_[msg.src], frame.data(), frame.size());
  // A failed write can only mean teardown is in progress; the message is
  // dropped, exactly as a real switch drops traffic to a vanished host.
}

void SocketTransport::switch_loop() {
  const std::uint32_t n = num_nodes();
  std::vector<std::vector<std::uint8_t>> inbuf(n);  // partial-frame buffers
  std::vector<bool> open(n, true);
  std::uint32_t open_count = n;
  std::vector<std::uint8_t> chunk(64 * 1024);

  while (open_count > 0) {
    std::vector<pollfd> fds;
    std::vector<NodeId> who;
    fds.reserve(open_count);
    for (NodeId i = 0; i < n; ++i) {
      if (!open[i]) continue;
      fds.push_back(pollfd{switch_fd_[i], POLLIN, 0});
      who.push_back(i);
    }
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const NodeId src = who[k];
      const ssize_t r = ::read(switch_fd_[src], chunk.data(), chunk.size());
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        open[src] = false;
        --open_count;
        continue;
      }
      auto& buf = inbuf[src];
      buf.insert(buf.end(), chunk.begin(), chunk.begin() + r);
      // Forward every complete frame verbatim; the switch only needs dst.
      std::size_t pos = 0;
      bool malformed = false;
      while (buf.size() - pos >= sizeof(std::uint32_t)) {
        std::uint32_t frame_len = 0;
        std::memcpy(&frame_len, buf.data() + pos, sizeof(frame_len));
        if (!frame_len_ok(frame_len)) {
          malformed = true;
          break;
        }
        const std::size_t total = sizeof(frame_len) + frame_len;
        if (buf.size() - pos < total) break;
        FrameHeader h{};
        std::memcpy(&h, buf.data() + pos + sizeof(frame_len), sizeof(h));
        SDSM_ASSERT(h.dst < num_nodes());
        if (open[h.dst]) {
          write_full(switch_fd_[h.dst], buf.data() + pos, total);
        }
        pos += total;
      }
      if (malformed) {
        // The buffer would grow toward the claimed length; drop the
        // connection instead, as read_frame does.
        ::shutdown(switch_fd_[src], SHUT_RDWR);
        std::vector<std::uint8_t>().swap(buf);
        open[src] = false;
        --open_count;
        continue;
      }
      buf.erase(buf.begin(), buf.begin() + pos);
    }
  }
}

void SocketTransport::demux_loop(NodeId node) {
  for (;;) {
    FrameHeader h{};
    Message msg;
    if (!read_frame(node_fd_[node], h, msg)) return;
    SDSM_ASSERT(msg.dst == node);
    deliver(static_cast<Port>(h.port), std::move(msg), Clock::now());
  }
}

}  // namespace sdsm::net
