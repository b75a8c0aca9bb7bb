// KernelServer: the persistent kernel-serving runtime (the PR's tentpole).
//
// A server owns its execution substrates for its whole lifetime — one warm
// engine per (backend, transport, coherence) tuple, created lazily: a
// TreadMarks engine keeps a DsmRuntime whose arena is reset (not rebuilt)
// between jobs — the reset also clears adaptive-coherence census and
// directory state, so a warm engine starts every job cold — and a CHAOS
// engine keeps a warm ChaosRuntime.  Jobs arrive as JobRequests
// through a bounded admission queue (reject-with-reason backpressure), are
// executed by a small worker pool, and consult the ScheduleCache so a
// repeat of a structure-cacheable job replays its inspector artifacts
// executor-only.
//
// Concurrency shape: the admission queue and job table are guarded by one
// mutex; each engine has its own mutex, so two jobs run concurrently only
// when they target different engine keys — within one
// engine the node threads already use every core.  An optional 127.0.0.1
// control socket (ephemeral port) serves the framed protocol of
// src/serve/job.hpp with one thread per connection.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/api/backend.hpp"
#include "src/serve/job.hpp"
#include "src/serve/schedule_cache.hpp"

namespace sdsm::serve {

struct ServerConfig {
  std::uint32_t nprocs = 4;        ///< node count of every engine
  std::size_t workers = 2;         ///< job worker threads (min 1)
  std::size_t queue_capacity = 8;  ///< admission bound (backpressure)
  std::size_t cache_entries = 32;  ///< ScheduleCache capacity (LRU)
  bool listen = false;             ///< open the 127.0.0.1 control socket
};

class KernelServer {
 public:
  explicit KernelServer(ServerConfig cfg);
  ~KernelServer();  ///< implies shutdown()

  KernelServer(const KernelServer&) = delete;
  KernelServer& operator=(const KernelServer&) = delete;

  /// Admission: checks the request (request_error in workloads.hpp) and
  /// the queue headroom under the admission lock; never blocks on
  /// execution.
  SubmitResult submit(const JobRequest& req);

  /// Blocks until the job completes and returns its stats.  An unknown id
  /// yields ok=false immediately (ids are never reused, so an unknown id
  /// is a caller bug, not a race).
  JobStats wait(std::uint64_t job_id);

  ServerStats stats() const;

  /// Graceful shutdown: stops admitting, drains every queued job through
  /// the workers, joins them, then tears down the control socket.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Control-socket port, or -1 when not listening.
  int port() const { return port_; }

  /// Test hook: while held, workers finish their current job but pick up
  /// nothing new, so the queue depth is observable deterministically.
  /// Cleared automatically by shutdown().
  void hold_workers(bool hold);

 private:
  struct Job;
  struct Engine;
  struct TmkEngine;
  struct ChaosEngine;

  void worker_loop();
  void run_job(Job& job);
  Engine& engine_for(const JobRequest& req, const api::BackendOptions& opts);

  void start_listener();
  void stop_listener();
  void accept_loop();
  void connection_loop(std::size_t slot, int fd);

  ServerConfig cfg_;
  ScheduleCache cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< queue became non-empty / shutdown
  std::condition_variable done_cv_;   ///< some job completed
  bool shutting_down_ = false;
  bool hold_ = false;
  std::uint64_t next_id_ = 1;
  std::deque<std::shared_ptr<Job>> queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t in_flight_ = 0;

  std::vector<std::thread> workers_;

  std::mutex engines_mu_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<Engine>> engines_;

  int port_ = -1;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;  ///< -1 once the connection thread closed it
  std::vector<std::thread> conn_threads_;
};

}  // namespace sdsm::serve
