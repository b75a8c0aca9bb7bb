#include "src/serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "src/common/assert.hpp"
#include "src/common/buffer.hpp"
#include "src/net/sockio.hpp"
#include "src/serve/server.hpp"

namespace sdsm::serve {

Client Client::in_proc(KernelServer& server) {
  Client c;
  c.server_ = &server;
  return c;
}

Client Client::connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SDSM_REQUIRE_MSG(fd >= 0, "serve::Client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  SDSM_REQUIRE_MSG(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "serve::Client: connect() failed");
  net::set_nodelay(fd);
  Client c;
  c.fd_ = fd;
  return c;
}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    server_ = std::exchange(o.server_, nullptr);
    fd_ = std::exchange(o.fd_, -1);
    mu_ = std::move(o.mu_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::uint8_t> Client::round_trip(
    const std::vector<std::uint8_t>& req) {
  std::lock_guard<std::mutex> g(*mu_);
  SDSM_REQUIRE_MSG(write_frame(fd_, req),
                   "serve::Client: connection lost on send");
  std::vector<std::uint8_t> resp;
  SDSM_REQUIRE_MSG(read_frame(fd_, resp),
                   "serve::Client: connection lost on receive");
  return resp;
}

SubmitResult Client::submit(const JobRequest& req) {
  SDSM_REQUIRE_MSG(connected(), "serve::Client: not connected");
  if (server_ != nullptr) return server_->submit(req);
  Writer w;
  w.put<std::uint32_t>(kSubmit);
  encode(w, req);
  const std::vector<std::uint8_t> resp = round_trip(w.bytes());
  Reader r(resp);
  return decode_submit_result(r);
}

JobStats Client::wait(std::uint64_t job_id) {
  SDSM_REQUIRE_MSG(connected(), "serve::Client: not connected");
  if (server_ != nullptr) return server_->wait(job_id);
  Writer w;
  w.put<std::uint32_t>(kWait);
  w.put<std::uint64_t>(job_id);
  const std::vector<std::uint8_t> resp = round_trip(w.bytes());
  Reader r(resp);
  return decode_stats(r);
}

JobStats Client::run(const JobRequest& req) {
  const SubmitResult sub = submit(req);
  if (!sub.accepted) {
    JobStats s;
    s.kernel = req.kernel;
    s.backend = req.backend;
    s.error = sub.reason;
    return s;
  }
  return wait(sub.job_id);
}

ServerStats Client::server_stats() {
  SDSM_REQUIRE_MSG(connected(), "serve::Client: not connected");
  if (server_ != nullptr) return server_->stats();
  Writer w;
  w.put<std::uint32_t>(kStats);
  const std::vector<std::uint8_t> resp = round_trip(w.bytes());
  Reader r(resp);
  return decode_server_stats(r);
}

}  // namespace sdsm::serve
