// Reproduces Table 2: the NBF kernel at 8 processors for three problem
// sizes; one kernel definition swept over all api backends.
//
// Paper sizes, reproduced directly: 64x1024=65536 (each node's block is
// exactly 16 pages of doubles), 64x1000=64000 (misaligned block boundaries
// -> false sharing between neighbouring nodes), 32x1024=32768; 100
// partners per molecule, last 10 of 11 iterations timed, inspector and
// list-scan excluded from the timing as in the paper.
#include <cstdio>
#include <iostream>

#include "bench/bench_params.hpp"
#include "src/apps/nbf/nbf_kernel.hpp"
#include "src/harness/experiment.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::apps;

nbf::Params scaled_params(std::int64_t molecules) {
  nbf::Params p;
  p.molecules = molecules;
  p.partners = 100;
  p.timed_steps = 10;
  p.warmup_steps = 1;
  p.nprocs = bench::kNodes;
  return p;
}

}  // namespace

int main() {
  std::printf("Table 2 reproduction: NBF kernel, %u processors.\n",
              bench::kNodes);
  std::printf("Paper sizes: 64x1024 / 64x1000 / 32x1024, 100 partners.\n\n");

  harness::Table table("NBF Kernel - 8 processor results");

  struct Size {
    const char* label;
    std::int64_t molecules;
  };
  for (const Size size : {Size{"64 x 1024", 65536}, Size{"64 x 1000", 64000},
                          Size{"32 x 1024", 32768}}) {
    const nbf::Params p = scaled_params(size.molecules);
    const auto seq = nbf::run_seq(p);

    char group[96];
    std::snprintf(group, sizeof(group), "%s (seq = %.2f s)", size.label,
                  seq.seconds);

    api::BackendOptions opts = nbf::default_options();
    opts.region_bytes = 64u << 20;
    for (const api::Backend b : api::kAllBackends) {
      const auto r = nbf::run(b, p, opts);
      char note[64] = "";
      if (b == api::Backend::kChaos) {
        std::snprintf(note, sizeof(note), "inspector %.3f s/node (untimed)",
                      r.overhead_seconds);
      } else if (b == api::Backend::kTmkOptimized) {
        std::snprintf(note, sizeof(note), "list scan %.4f s/node (warmup)",
                      r.overhead_seconds);
      }
      table.add(harness::Row{group, api::backend_name(b), r.seconds,
                             harness::speedup(seq.seconds, r.seconds),
                             r.messages, r.megabytes, r.overhead_seconds,
                             note});
    }
  }

  table.print(std::cout);

  std::printf(
      "Expected shape (paper): CHAOS slightly ahead of Tmk optimized (push\n"
      "vs request/response); Tmk base far behind (page-at-a-time, no\n"
      "aggregation); the misaligned size costs Tmk extra messages and data\n"
      "from false sharing; CHAOS's one-time inspector cost (untimed here,\n"
      "as in the paper) exceeds Tmk's per-run indirection scan.\n");
  return 0;
}
