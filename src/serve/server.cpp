#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <exception>
#include <string>
#include <utility>

#include "src/api/chaos_backend.hpp"
#include "src/api/reuse.hpp"
#include "src/api/tmk_backend.hpp"
#include "src/common/assert.hpp"
#include "src/common/timer.hpp"
#include "src/net/sockio.hpp"
#include "src/serve/workloads.hpp"

namespace sdsm::serve {

// --- Job record ------------------------------------------------------------

struct KernelServer::Job {
  std::uint64_t id = 0;
  JobRequest req;
  Timer admitted;  ///< queue_seconds is read at worker pickup
  bool done = false;
  JobStats stats;
};

// --- Engines ---------------------------------------------------------------

// An engine is the warm substrate for one (backend, transport, coherence)
// key.  Its mutex serializes jobs on it: within a job the backend's node
// threads already occupy the machine, so per-engine serialization loses
// nothing, and jobs on *different* engines overlap freely across the
// worker pool.
struct KernelServer::Engine {
  std::mutex mu;
  virtual ~Engine() = default;
  virtual api::KernelResult run(const PreparedJob& job,
                                const api::BackendOptions& opts,
                                api::RunSession* session) = 0;
};

struct KernelServer::TmkEngine final : Engine {
  TmkEngine(std::uint32_t nprocs, api::Backend kind,
            const api::BackendOptions& opts)
      : nprocs(nprocs),
        kind(kind),
        rt(api::TmkBackend::dsm_config(nprocs, opts)) {}

  std::uint32_t nprocs;
  api::Backend kind;    ///< kTmkBase / kTmkOptimized / kHybrid
  core::DsmRuntime rt;  ///< lives as long as the engine: the warm arena

  api::KernelResult run(const PreparedJob& job, const api::BackendOptions& opts,
                        api::RunSession* session) override {
    // Same pages, fresh contents: punch-hole + reprotect + metadata wipe
    // (plus app-data inbox drain for the hybrid exchange plane), so the
    // job's paging behaviour is identical to a cold runtime.
    rt.reset_arena();
    api::TmkBackend backend(nprocs, kind, opts);
    return job.is_double3 ? backend.run_on(rt, job.spec3, session)
                          : backend.run_on(rt, job.spec, session);
  }
};

struct KernelServer::ChaosEngine final : Engine {
  ChaosEngine(std::uint32_t nprocs, const api::BackendOptions& opts)
      : nprocs(nprocs), rt(nprocs, opts.wire, opts.transport) {}

  std::uint32_t nprocs;
  chaos::ChaosRuntime rt;  ///< warm fabric; per-run node state is fresh

  api::KernelResult run(const PreparedJob& job, const api::BackendOptions& opts,
                        api::RunSession* session) override {
    api::ChaosBackend backend(nprocs, opts);
    return job.is_double3 ? backend.run_on(rt, job.spec3, session)
                          : backend.run_on(rt, job.spec, session);
  }
};

KernelServer::Engine& KernelServer::engine_for(
    const JobRequest& req, const api::BackendOptions& opts) {
  // Every field a warm substrate is built from must be part of the key:
  // a TmkEngine's DsmRuntime bakes the coherence policy into its config at
  // construction, and run_dsm refuses a job whose policy differs.  The
  // rest of `opts` that a substrate reads (wire model, region size,
  // WRITE_ALL) is the same for every request.
  const std::tuple<int, int, int> key{static_cast<int>(req.backend),
                                      static_cast<int>(req.transport),
                                      static_cast<int>(req.coherence)};
  std::lock_guard<std::mutex> g(engines_mu_);
  const auto it = engines_.find(key);
  if (it != engines_.end()) return *it->second;

  std::unique_ptr<Engine> engine;
  if (req.backend == api::Backend::kChaos) {
    engine = std::make_unique<ChaosEngine>(cfg_.nprocs, opts);
  } else {
    engine = std::make_unique<TmkEngine>(cfg_.nprocs, req.backend, opts);
  }
  Engine& ref = *engine;
  engines_[key] = std::move(engine);
  return ref;
}

// --- Lifecycle -------------------------------------------------------------

KernelServer::KernelServer(ServerConfig cfg)
    : cfg_(cfg), cache_(cfg_.cache_entries) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (cfg_.listen) start_listener();
}

KernelServer::~KernelServer() { shutdown(); }

void KernelServer::shutdown() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (shutting_down_) return;  // workers already joined by the first call
    shutting_down_ = true;
    hold_ = false;  // a held server still drains
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> g(mu_);
    SDSM_ENSURE(queue_.empty());  // drain contract: zero queue leaks
  }
  // Connections could still submit during the drain (and were rejected);
  // only after the drain is the control socket torn down, so no wait()
  // reply is cut off.
  stop_listener();
}

void KernelServer::hold_workers(bool hold) {
  {
    std::lock_guard<std::mutex> g(mu_);
    hold_ = hold;
  }
  queue_cv_.notify_all();
}

// --- Admission / completion ------------------------------------------------

SubmitResult KernelServer::submit(const JobRequest& req) {
  std::lock_guard<std::mutex> g(mu_);
  if (shutting_down_) {
    ++rejected_;
    return {false, 0, "server shutting down"};
  }
  if (std::string error = request_error(req); !error.empty()) {
    ++rejected_;
    return {false, 0, std::move(error)};
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    ++rejected_;
    return {false, 0,
            "queue full (capacity " + std::to_string(cfg_.queue_capacity) +
                ")"};
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->req = req;
  job->stats.job_id = job->id;
  job->stats.kernel = req.kernel;
  job->stats.backend = req.backend;
  jobs_[job->id] = job;
  queue_.push_back(job);
  ++submitted_;
  queue_cv_.notify_one();
  return {true, job->id, ""};
}

JobStats KernelServer::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    JobStats s;
    s.job_id = job_id;
    s.error = "unknown job id";
    return s;
  }
  const std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lk, [&] { return job->done; });
  jobs_.erase(job_id);  // by key: submits may rehash while we wait
  return job->stats;
}

ServerStats KernelServer::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> g(mu_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.queue_depth = queue_.size();
    s.in_flight = in_flight_;
  }
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  return s;
}

// --- Execution -------------------------------------------------------------

void KernelServer::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] {
        return (!queue_.empty() && !hold_) ||
               (shutting_down_ && queue_.empty());
      });
      if (queue_.empty()) return;  // shutting down and fully drained
      job = queue_.front();
      queue_.pop_front();
      ++in_flight_;
      job->stats.queue_seconds = job->admitted.elapsed_s();
    }
    run_job(*job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
      job->done = true;
      if (job->stats.ok) {
        ++completed_;
      } else {
        ++failed_;
      }
    }
    done_cv_.notify_all();
  }
}

void KernelServer::run_job(Job& job) {
  JobStats& s = job.stats;
  const Timer run_timer;
  try {
    const PreparedJob prepared = prepare_job(job.req, cfg_.nprocs);
    s.cache_eligible = prepared.cacheable;
    const api::BackendOptions& opts = prepared.base_options;
    Engine& engine = engine_for(job.req, opts);

    api::RunSession session;
    const CacheKey key{prepared.fingerprint, job.req.kernel, job.req.backend,
                       cfg_.nprocs};
    std::shared_ptr<const CacheEntry> hit;
    // Staged fresh-build traces, per node.  Node threads touch disjoint
    // inner vectors (the outer vector is pre-sized and never resized), so
    // no lock is needed.
    auto staging =
        std::make_shared<std::vector<std::vector<api::CachedRebuild>>>(
            cfg_.nprocs);

    if (prepared.cacheable) {
      hit = cache_.find(key);
      if (hit) {
        session.lookup = [entry = hit](
                             NodeId node,
                             std::int64_t ord) -> const api::CachedRebuild* {
          const auto& trace = entry->per_node[static_cast<std::size_t>(node)];
          if (ord < 0 || static_cast<std::size_t>(ord) >= trace.size()) {
            return nullptr;  // trace shorter than this run: fresh build
          }
          return &trace[static_cast<std::size_t>(ord)];
        };
        session.table = hit->table;
      } else {
        session.store = [staging](NodeId node, std::int64_t ord,
                                  api::CachedRebuild&& artifact) {
          auto& trace = (*staging)[static_cast<std::size_t>(node)];
          SDSM_REQUIRE_MSG(static_cast<std::size_t>(ord) == trace.size(),
                           "serve: rebuild trace recorded out of order");
          trace.push_back(std::move(artifact));
        };
      }
    }

    api::KernelResult r;
    {
      std::lock_guard<std::mutex> g(engine.mu);
      r = engine.run(prepared, opts, &session);
    }

    s.ok = true;
    s.checksum = r.checksum;
    s.messages = r.messages;
    s.megabytes = r.megabytes;
    s.steps_run = r.steps_run;
    s.rebuilds = r.rebuilds;
    s.replications = r.tmk.replications;
    s.migrations = r.tmk.migrations;
    s.ghost_promotions = r.tmk.ghost_promotions;
    s.inspector_runs =
        static_cast<std::int64_t>(session.fresh_builds.load() / cfg_.nprocs);
    s.structure_messages = session.structure_messages.load();
    s.structure_bytes = session.structure_bytes.load();
    s.cache_hit = hit != nullptr && session.fresh_builds.load() == 0;

    if (prepared.cacheable && !hit) {
      // Commit only now, after success, and always with all nprocs traces
      // complete — a partial entry would let nodes disagree on hit/miss at
      // one ordinal, which the CHAOS collective rebuild cannot tolerate.
      auto entry = std::make_shared<CacheEntry>();
      entry->per_node = std::move(*staging);
      entry->table = session.table;
      cache_.insert(key, std::move(entry));
    }
  } catch (const std::exception& e) {
    s.ok = false;
    s.error = e.what();
  }
  s.run_seconds = run_timer.elapsed_s();
}

// --- Control socket --------------------------------------------------------

void KernelServer::start_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SDSM_REQUIRE_MSG(listen_fd_ >= 0, "serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  SDSM_REQUIRE_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0,
      "serve: bind() failed");
  SDSM_REQUIRE_MSG(::listen(listen_fd_, 16) == 0, "serve: listen() failed");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  SDSM_REQUIRE_MSG(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
          0,
      "serve: getsockname() failed");
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void KernelServer::stop_listener() {
  if (listen_fd_ < 0) return;
  // shutdown() (not close()) is what reliably unblocks a pending accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (const int fd : conn_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblocks recv()
    }
  }
  // The accept thread is gone, so no new connection threads appear.
  for (std::thread& t : conn_threads_) t.join();
  conn_threads_.clear();
  conn_fds_.clear();
}

void KernelServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listener shut down
    net::set_nodelay(fd);
    std::lock_guard<std::mutex> g(conns_mu_);
    const std::size_t slot = conn_fds_.size();
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(
        [this, slot, fd] { connection_loop(slot, fd); });
  }
}

void KernelServer::connection_loop(std::size_t slot, int fd) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    if (!read_frame(fd, payload)) break;  // EOF, error, or oversized
    Reader r(payload);
    const auto op = r.get<std::uint32_t>();
    Writer w;
    if (op == kSubmit) {
      encode(w, submit(decode_request(r)));
    } else if (op == kWait) {
      encode(w, wait(r.get<std::uint64_t>()));
    } else if (op == kStats) {
      encode(w, stats());
    } else {
      break;  // protocol error: drop the connection
    }
    if (!write_frame(fd, w.bytes())) break;
  }
  std::lock_guard<std::mutex> g(conns_mu_);
  ::close(fd);
  conn_fds_[slot] = -1;  // this thread owned the close
}

}  // namespace sdsm::serve
