// SPMV end to end, in either deployment mode — and, with --verify, both
// at once: the process-mode run (spawned workers, cross-process page
// faults) is checked bit-exactly against the threaded socket run of the
// identical job, the wire-parity claim of sdsm::proc, with a nonzero
// exit on any mismatch (CI's proc-smoke gate).
//
// Build & run:   ./build/spmv_app [--transport=inproc|socket]
//                                 [--backend=tmk-base|tmk-optimized|chaos]
//                                 [--mode=threads|processes] [--verify]
//                                 [--coherence=static|adaptive]
#include <cmath>
#include <cstdio>

#include "src/api/api.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/harness/options.hpp"
#include "src/proc/proc.hpp"
#include "src/serve/workloads.hpp"

using namespace sdsm;

namespace {

constexpr std::uint32_t kNprocs = 4;

serve::JobRequest job_for(api::Backend b, coherence::CoherencePolicy c) {
  serve::JobRequest req;
  req.kernel = "spmv";
  req.graph.num_elements = 2048;
  req.graph.num_steps = 4;
  req.backend = b;
  req.coherence = c;
  req.transport = net::TransportKind::kSocket;
  return req;
}

/// Threaded run of exactly the job the workers execute: same prepare_job
/// materialization, same socket fabric, nodes as threads.
api::KernelResult run_threaded(const serve::JobRequest& req) {
  const serve::PreparedJob prepared = serve::prepare_job(req, kNprocs);
  return api::run_kernel(req.backend, prepared.spec, prepared.base_options);
}

void print_row(const char* label, const api::KernelResult& r) {
  std::printf("%-24s %14.6f %10llu %12llu %8.2f\n", label, r.checksum,
              static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.bytes), r.barriers_per_step);
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Options opt = harness::Options::parse(argc, argv);
  const bool verify = opt.flag("verify");

  std::printf("%-24s %14s %10s %12s %8s\n", "run", "checksum", "messages",
              "bytes", "barr/st");
  bool failed = false;
  for (const api::Backend b : opt.backends) {
    if (b == api::Backend::kChaos) continue;  // threads-only backend
    const serve::JobRequest req = job_for(b, opt.coherence);
    char label[64];

    api::KernelResult procr{};
    if (verify || opt.mode == DeployMode::kProcesses) {
      proc::LaunchOptions lopt;
      lopt.nprocs = kNprocs;
      const proc::LaunchResult lr = proc::run_job(req, lopt);
      if (!lr.ok) {
        std::fprintf(stderr, "%s processes: %s\n", api::backend_name(b),
                     lr.error.c_str());
        failed = true;
        continue;
      }
      procr = lr.result;
      std::snprintf(label, sizeof(label), "%s processes",
                    api::backend_name(b));
      print_row(label, procr);
    }
    if (verify || opt.mode == DeployMode::kThreads) {
      const api::KernelResult tr = run_threaded(req);
      std::snprintf(label, sizeof(label), "%s threads",
                    api::backend_name(b));
      print_row(label, tr);
      if (verify) {
        const bool match = procr.checksum == tr.checksum &&
                           procr.messages == tr.messages &&
                           procr.bytes == tr.bytes &&
                           procr.barriers_per_step == tr.barriers_per_step &&
                           procr.steps_run == tr.steps_run &&
                           procr.rebuilds == tr.rebuilds;
        std::printf("%-24s %s\n", "  parity",
                    match ? "exact match" : "MISMATCH");
        if (!match) failed = true;
      }
    }
  }
  return failed ? 1 : 0;
}
