// Quickstart: write an irregular kernel once, run it on every runtime —
// and in both deployment modes.
//
// The kernel (src/apps/quickstart) is a miniature of the paper's
// applications: elements hold a value, an irregular neighbour list says
// who interacts with whom, and each step every pair exchanges a
// contribution before owners relax their values.  Describing it as an
// api::KernelSpec is all that is needed — the CHAOS backend derives the
// inspector/executor schedules, the TreadMarks backends run it over the
// DSM (base: demand paging; optimized: compiler-driven Validate
// aggregation), and the message counts stay comparable because every
// backend shares one network fabric.
//
// With --mode=processes the Tmk rows run as real spawned worker
// processes (sdsm::proc): one process per node, cross-process page
// faults, results aggregated from the per-worker reports.  CHAOS is
// threads-only and is skipped in that mode.
//
// Build & run:   ./build/quickstart [--transport=inproc|socket]
//                                   [--backend=chaos|tmk-base|tmk-optimized|hybrid]
//                                   [--mode=threads|processes]
//                                   [--coherence=static|adaptive]
#include <cstdio>

#include "src/api/api.hpp"
#include "src/apps/quickstart/quickstart.hpp"
#include "src/harness/options.hpp"
#include "src/proc/proc.hpp"

using namespace sdsm;

int main(int argc, char** argv) {
  const harness::Options opt = harness::Options::parse(argc, argv);
  const apps::quickstart::Params params;  // the defaults: 4096 x 4 nodes

  api::BackendOptions options = apps::quickstart::default_options();
  options.transport = opt.transport;
  options.coherence = opt.coherence;

  serve::JobRequest req;  // the process-mode job description
  req.kernel = "quickstart";
  req.transport = net::TransportKind::kSocket;
  req.coherence = opt.coherence;

  std::printf("%-14s %12s %10s %10s %12s\n", "backend", "checksum",
              "messages", "data(MB)", "overhead(s)");
  bool failed = false;
  for (const api::Backend b : opt.backends) {
    api::KernelResult r;
    if (opt.mode == DeployMode::kProcesses) {
      if (b == api::Backend::kChaos) {
        std::printf("%-14s %12s\n", api::backend_name(b),
                    "(threads-only)");
        continue;
      }
      proc::LaunchOptions lopt;
      lopt.nprocs = params.nprocs;
      req.backend = b;
      const proc::LaunchResult lr = proc::run_job(req, lopt);
      if (!lr.ok) {
        std::fprintf(stderr, "%s: %s\n", api::backend_name(b),
                     lr.error.c_str());
        failed = true;
        continue;
      }
      r = lr.result;
    } else {
      r = apps::quickstart::run(b, params, options);
    }
    std::printf("%-14s %12.3f %10llu %10.3f %12.6f\n", api::backend_name(b),
                r.checksum, static_cast<unsigned long long>(r.messages),
                r.megabytes, r.overhead_seconds);
  }
  if (opt.mode == DeployMode::kProcesses) {
    std::printf("\nEach row above ran as %u real worker processes with "
                "cross-process page\nfaults; counts match the threaded "
                "socket run exactly.\n", params.nprocs);
  } else {
    std::printf("\nSame kernel, one spec per runtime; checksums agree, message\n"
                "counts show demand paging vs aggregation vs inspector/"
                "executor.\n");
  }
  return failed ? 1 : 0;
}
