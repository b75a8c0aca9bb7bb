// serve::Client — one handle, two transports: in-process (direct calls on
// a KernelServer living in the same address space) or a socket connection
// to a server's 127.0.0.1 control port speaking the framed protocol of
// src/serve/job.hpp.  Call sites are identical either way, so tests
// and the CLI exercise both paths through one code shape.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "src/serve/job.hpp"

namespace sdsm::serve {

class KernelServer;

class Client {
 public:
  /// Direct calls on a server in this process (no sockets involved).
  static Client in_proc(KernelServer& server);

  /// Connects to a server's control port on 127.0.0.1.
  static Client connect_local(int port);

  Client(Client&& o) noexcept
      : server_(o.server_), fd_(o.fd_), mu_(std::move(o.mu_)) {
    o.server_ = nullptr;
    o.fd_ = -1;
  }
  Client& operator=(Client&& o) noexcept;
  ~Client();

  bool connected() const { return server_ != nullptr || fd_ >= 0; }

  SubmitResult submit(const JobRequest& req);

  /// Blocks until the job completes.  On the socket path this occupies the
  /// connection, so submit everything first and wait in submission order.
  JobStats wait(std::uint64_t job_id);

  /// submit + wait.  A rejected submit comes back as ok=false with the
  /// rejection reason in `error` (no job ran).
  JobStats run(const JobRequest& req);

  ServerStats server_stats();

 private:
  Client() = default;

  /// One request/response round-trip on the socket (serialized: the
  /// protocol is strictly alternating).
  std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& req);

  KernelServer* server_ = nullptr;  ///< in-proc mode
  int fd_ = -1;                     ///< socket mode
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
};

}  // namespace sdsm::serve
