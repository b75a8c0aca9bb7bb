// Shared low-level socket I/O for every localhost TCP fabric: the
// in-process SocketTransport's switch topology and the cross-process mesh
// (src/proc) speak the identical frame format through these helpers, so a
// frame written by one is parseable by the other.
//
// Frame layout (native byte order; all nodes share one architecture, as
// on the SP2):
//   u32 frame_len   bytes that follow this field (24 + payload size)
//   u32 type | u32 src | u32 dst | u32 port | u64 request_id
//   u8  payload[frame_len - 24]
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/net/message.hpp"

namespace sdsm::net {

/// Fixed-size frame header that follows the u32 length prefix.
struct FrameHeader {
  std::uint32_t type;
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t port;
  std::uint64_t request_id;
};
static_assert(sizeof(FrameHeader) == 24);

/// Largest `frame_len` a reader accepts.  The length prefix comes from a
/// peer, so it is checked before anything is allocated; a frame outside
/// [sizeof(FrameHeader), kMaxFrameLen] is a protocol error that closes
/// the connection.  The largest frame the test suite and the benches send
/// is ~150 KB, so 64 MiB leaves two orders of magnitude of headroom for
/// larger inputs while bounding what one bad header can cost.
inline constexpr std::uint32_t kMaxFrameLen = 64u << 20;

inline bool frame_len_ok(std::uint32_t frame_len) {
  return frame_len >= sizeof(FrameHeader) && frame_len <= kMaxFrameLen;
}

/// Full write with EINTR retry; MSG_NOSIGNAL so a torn-down peer yields
/// EPIPE instead of killing the process.  Returns false on any error.
inline bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Full read with EINTR retry.  Returns false on EOF or error.
inline bool read_full(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

inline void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Serializes a message as one contiguous length-prefixed frame.
inline std::vector<std::uint8_t> encode_frame(Port port, const Message& msg) {
  const std::uint32_t frame_len =
      static_cast<std::uint32_t>(sizeof(FrameHeader) + msg.payload.size());
  std::vector<std::uint8_t> frame(sizeof(frame_len) + frame_len);
  std::memcpy(frame.data(), &frame_len, sizeof(frame_len));
  const FrameHeader h{msg.type, msg.src, msg.dst,
                      static_cast<std::uint32_t>(port), msg.request_id};
  std::memcpy(frame.data() + sizeof(frame_len), &h, sizeof(h));
  if (!msg.payload.empty()) {
    std::memcpy(frame.data() + sizeof(frame_len) + sizeof(h),
                msg.payload.data(), msg.payload.size());
  }
  return frame;
}

/// Reads one frame from `fd` into (header, message).  Returns false on
/// EOF/error (clean teardown included) and on a length outside
/// frame_len_ok, which the caller treats as a closed connection.
inline bool read_frame(int fd, FrameHeader& h, Message& msg) {
  std::uint32_t frame_len = 0;
  if (!read_full(fd, &frame_len, sizeof(frame_len))) return false;
  if (!frame_len_ok(frame_len)) return false;
  if (!read_full(fd, &h, sizeof(h))) return false;
  msg.type = h.type;
  msg.src = h.src;
  msg.dst = h.dst;
  msg.request_id = h.request_id;
  msg.payload.resize(frame_len - sizeof(FrameHeader));
  if (!msg.payload.empty() &&
      !read_full(fd, msg.payload.data(), msg.payload.size())) {
    return false;
  }
  return true;
}

}  // namespace sdsm::net
