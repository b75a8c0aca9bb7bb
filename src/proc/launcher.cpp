#include "src/proc/launcher.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/api/plan/fold.hpp"
#include "src/common/buffer.hpp"
#include "src/proc/rendezvous.hpp"
#include "src/proc/report.hpp"

namespace sdsm::proc {

namespace {

using Clock = std::chrono::steady_clock;

std::string hex_encode(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

/// Last `max_bytes` of a worker's stderr log, for failure messages.
std::string log_tail(const std::string& path, std::size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long start = size > static_cast<long>(max_bytes)
                         ? size - static_cast<long>(max_bytes)
                         : 0;
  std::fseek(f, start, SEEK_SET);
  std::string tail(static_cast<std::size_t>(size - start), '\0');
  const std::size_t got = std::fread(tail.data(), 1, tail.size(), f);
  tail.resize(got);
  std::fclose(f);
  return tail;
}

std::string describe_exit(int status) {
  char buf[64];
  if (WIFEXITED(status)) {
    std::snprintf(buf, sizeof(buf), "exited with status %d",
                  WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof(buf), "killed by signal %d", WTERMSIG(status));
  } else {
    std::snprintf(buf, sizeof(buf), "ended with raw status 0x%x", status);
  }
  return buf;
}

struct Worker {
  pid_t pid = -1;
  int pidfd = -1;  ///< turns readable when the worker exits
  bool done = false;
  int status = 0;
};

void kill_remaining(std::vector<Worker>& workers) {
  for (Worker& w : workers) {
    if (!w.done && w.pid > 0) ::kill(w.pid, SIGKILL);
  }
  for (Worker& w : workers) {
    if (!w.done && w.pid > 0) {
      ::waitpid(w.pid, &w.status, 0);
      w.done = true;
    }
  }
}

}  // namespace

std::string default_worker_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "sdsm_worker";
  buf[n] = '\0';
  std::string dir(buf);
  const std::size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return "sdsm_worker";
  return dir.substr(0, slash) + "/sdsm_worker";
}

LaunchResult run_job(const serve::JobRequest& req, const LaunchOptions& opt) {
  LaunchResult out;
  if (req.backend == api::Backend::kChaos) {
    out.error = "proc::run_job: CHAOS is not deployed multi-process "
                "(Tmk backends only)";
    return out;
  }
  if (opt.nprocs < 1) {
    out.error = "proc::run_job: nprocs must be >= 1";
    return out;
  }

  // --- Log/report directory.
  std::string log_dir = opt.log_dir;
  bool made_tmp = false;
  if (log_dir.empty()) {
    if (const char* env = std::getenv("SDSM_PROC_LOG_DIR")) log_dir = env;
  }
  if (log_dir.empty()) {
    char tmpl[] = "/tmp/sdsm-proc-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      out.error = "proc::run_job: mkdtemp failed";
      return out;
    }
    log_dir = tmpl;
    made_tmp = true;
  } else {
    ::mkdir(log_dir.c_str(), 0755);  // best effort; may already exist
  }

  // --- Rendezvous listener (node 0 inherits the fd).
  auto [listen_fd, port] = listen_loopback(opt.nprocs);
  if (listen_fd < 0) {
    out.error = "proc::run_job: cannot bind the rendezvous listener";
    return out;
  }

  // --- Job payload, shipped through argv as hex.
  Writer w;
  serve::encode(w, req);
  const std::string job_hex = hex_encode(w.bytes());

  const std::string worker =
      opt.worker_path.empty() ? default_worker_path() : opt.worker_path;
  // The worker's rendezvous deadline fires well before the launcher's, so
  // a missing peer produces a clean in-worker diagnostic, not a SIGKILL.
  const int rdv_timeout_ms =
      std::max(500, opt.timeout_seconds * 1000 / 2);

  std::vector<std::string> report_paths(opt.nprocs);
  out.log_paths.resize(opt.nprocs);
  std::vector<Worker> workers(opt.nprocs);
  // Every return below closes the workers' pidfds.
  struct ClosePidfds {
    std::vector<Worker>& workers;
    ~ClosePidfds() {
      for (const Worker& w : workers) {
        if (w.pidfd >= 0) ::close(w.pidfd);
      }
    }
  } close_pidfds{workers};
  for (std::uint32_t k = 0; k < opt.nprocs; ++k) {
    char name[64];
    std::snprintf(name, sizeof(name), "/worker-%u.log", k);
    out.log_paths[k] = log_dir + name;
    std::snprintf(name, sizeof(name), "/report-%u.bin", k);
    report_paths[k] = log_dir + name;

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(listen_fd);
      kill_remaining(workers);
      out.error = "proc::run_job: fork failed";
      return out;
    }
    if (pid == 0) {
      // Child: stderr/stdout -> per-worker log, then exec.
      const int log = ::open(out.log_paths[k].c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        if (log > 2) ::close(log);
      }
      if (k != 0) ::close(listen_fd);
      for (const std::string& kv : opt.extra_env) {
        const std::size_t eq = kv.find('=');
        if (eq != std::string::npos) {
          ::setenv(kv.substr(0, eq).c_str(), kv.c_str() + eq + 1, 1);
        }
      }
      char arg_node[32], arg_nprocs[32], arg_port[32], arg_fd[32],
          arg_timeout[32];
      std::snprintf(arg_node, sizeof(arg_node), "--node=%u", k);
      std::snprintf(arg_nprocs, sizeof(arg_nprocs), "--nprocs=%u",
                    opt.nprocs);
      std::snprintf(arg_port, sizeof(arg_port), "--rendezvous-port=%u",
                    static_cast<unsigned>(port));
      std::snprintf(arg_fd, sizeof(arg_fd), "--rendezvous-fd=%d", listen_fd);
      std::snprintf(arg_timeout, sizeof(arg_timeout), "--timeout-ms=%d",
                    rdv_timeout_ms);
      const std::string arg_job = "--job=" + job_hex;
      const std::string arg_report = "--report=" + report_paths[k];
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(worker.c_str()));
      argv.push_back(arg_node);
      argv.push_back(arg_nprocs);
      argv.push_back(arg_port);
      if (k == 0) argv.push_back(arg_fd);
      argv.push_back(arg_timeout);
      argv.push_back(const_cast<char*>(arg_job.c_str()));
      argv.push_back(const_cast<char*>(arg_report.c_str()));
      argv.push_back(nullptr);
      ::execv(worker.c_str(), argv.data());
      std::fprintf(stderr, "sdsm_worker exec failed: %s: %s\n",
                   worker.c_str(), std::strerror(errno));
      ::_exit(127);
    }
    workers[k].pid = pid;
    // Through syscall(): glibc 2.36's <sys/pidfd.h> lacks C linkage.
    workers[k].pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (workers[k].pidfd < 0) {
      out.error = std::string("proc::run_job: pidfd_open failed (Linux >= "
                              "5.3 required): ") +
                  std::strerror(errno);
      ::close(listen_fd);
      kill_remaining(workers);
      return out;
    }
  }
  ::close(listen_fd);

  // --- Exit monitor: every worker must exit 0 before the deadline.  Each
  // pass reaps what has exited, then sleeps in poll() on the live
  // workers' pidfds until one exits or the deadline passes.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(opt.timeout_seconds);
  std::int32_t failed = -1;
  std::vector<pollfd> live;
  live.reserve(opt.nprocs);
  for (;;) {
    live.clear();
    for (std::uint32_t k = 0; k < opt.nprocs; ++k) {
      Worker& wk = workers[k];
      if (wk.done) continue;
      if (::waitpid(wk.pid, &wk.status, WNOHANG) == wk.pid) {
        wk.done = true;
        if (wk.status != 0 && failed < 0) failed = static_cast<int>(k);
      } else {
        live.push_back({wk.pidfd, POLLIN, 0});
      }
    }
    if (failed >= 0 || live.empty()) break;
    const auto left_ms =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
            .count();
    if (left_ms <= 0) {
      kill_remaining(workers);
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "proc::run_job: timeout after %d s waiting for %zu "
                    "worker(s)",
                    opt.timeout_seconds, live.size());
      out.error = buf;
      return out;
    }
    if (::poll(live.data(), live.size(), static_cast<int>(left_ms)) < 0 &&
        errno != EINTR) {
      out.error =
          std::string("proc::run_job: poll failed: ") + std::strerror(errno);
      kill_remaining(workers);
      return out;
    }
  }
  if (failed >= 0) {
    kill_remaining(workers);
    char buf[128];
    const std::string how = describe_exit(workers[failed].status);
    std::snprintf(buf, sizeof(buf), "proc::run_job: worker %d %s", failed,
                  how.c_str());
    out.error = buf;
    const std::string tail = log_tail(out.log_paths[failed], 4096);
    if (!tail.empty()) {
      out.error += "\n--- worker stderr (tail) ---\n" + tail;
    }
    return out;
  }

  // --- Fold the reports.  Checksums are summed in node order — the same
  // summation order the threaded result assembly uses — so the combined
  // value is bit-identical, not merely close.
  std::vector<WorkerReport> reps;
  reps.reserve(opt.nprocs);
  for (std::uint32_t k = 0; k < opt.nprocs; ++k) {
    std::optional<WorkerReport> rep = read_report_file(report_paths[k]);
    if (!rep.has_value()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "proc::run_job: worker %u exited 0 but left no report",
                    k);
      out.error = buf;
      return out;
    }
    if (!rep->ok) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "proc::run_job: worker %u failed: ", k);
      out.error = buf + rep->error;
      return out;
    }
    reps.push_back(std::move(*rep));
  }
  api::KernelResult& agg = out.result;
  agg = reps[0].result;
  // Per-node accounts fold through the same helper the in-process drivers
  // use (plan::fold_accounts), in worker/node order, so the aggregate is
  // bit-identical to a threaded run — one copy of that contract, not three.
  agg.checksum = 0;
  agg.refs = 0;
  agg.max_row = 0;
  std::vector<api::plan::NodeAccount> accounts;
  accounts.reserve(reps.size());
  double overhead_sum = 0;
  double diff_create_sum = 0, diff_apply_sum = 0;
  for (const WorkerReport& rep : reps) {
    const api::KernelResult& k = rep.result;
    // Globally uniform fields must agree across workers; disagreement
    // means the runs diverged and the "one result" would be a lie.
    if (k.steps_run != agg.steps_run || k.rebuilds != agg.rebuilds ||
        k.barriers_per_step != agg.barriers_per_step ||
        k.backend != agg.backend) {
      out.error = "proc::run_job: workers disagree on globally uniform "
                  "result fields (steps/rebuilds/barriers)";
      return out;
    }
    accounts.push_back({k.checksum, k.refs, k.max_row});
    overhead_sum += k.overhead_seconds;
    diff_create_sum += k.diff_create_seconds;
    diff_apply_sum += k.diff_apply_seconds;
    if (rep.node != reps[0].node) {
      agg.seconds = std::max(agg.seconds, k.seconds);
      agg.messages += k.messages;
      agg.bytes += k.bytes;
      agg.tmk += k.tmk;
    }
  }
  api::plan::fold_accounts(agg, accounts);
  agg.megabytes = static_cast<double>(agg.bytes) / 1e6;
  agg.overhead_seconds = overhead_sum / opt.nprocs;
  agg.diff_create_seconds = diff_create_sum / opt.nprocs;
  agg.diff_apply_seconds = diff_apply_sum / opt.nprocs;
  out.ok = true;

  if (made_tmp && !opt.keep_logs) {
    for (const std::string& p : out.log_paths) ::unlink(p.c_str());
    for (const std::string& p : report_paths) ::unlink(p.c_str());
    ::rmdir(log_dir.c_str());
    out.log_paths.clear();
  } else {
    for (const std::string& p : report_paths) ::unlink(p.c_str());
  }
  return out;
}

}  // namespace sdsm::proc
