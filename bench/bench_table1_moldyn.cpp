// Reproduces Table 1: moldyn at 8 processors, interaction list updated at
// varying intervals; CHAOS vs base TreadMarks vs compiler-optimized
// TreadMarks; execution time, speedup, messages, and data volume — one
// kernel definition, swept over api::kAllBackends.
//
// Paper scale: 16384 molecules / 40 steps, lists rebuilt every 20/15/11
// iterations (2, 3, 4 rebuilds per run, the first at step 0).  The same
// molecule count, step count, and rebuild progression are used here; the
// cutoff is chosen so the force loop dominates the sequential time the way
// the paper's does (its SP2 sequential runs were minutes; cross-thread
// message costs here are ~10^3 cheaper than SP2 UDP, so the ratio, not the
// absolute seconds, is the reproduction target).  No simulated wire cost:
// the real in-process fabric plays the interconnect.
#include <cstdio>
#include <iostream>

#include "bench/bench_params.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/harness/experiment.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::apps;

moldyn::Params paper_params(int update_interval) {
  moldyn::Params p;
  p.num_molecules = 16384;
  p.num_steps = 40;
  p.update_interval = update_interval;
  p.box = 25.4;    // unit lattice spacing at 16384 molecules
  p.cutoff = 4.6;  // ~400 partners/molecule; with the CHARMM-weight kernel
                   // the force loop dominates the step as on the SP2
  p.nprocs = bench::kNodes;
  return p;
}

}  // namespace

int main() {
  std::printf("Table 1 reproduction: moldyn, %u processors.\n", bench::kNodes);
  std::printf(
      "Paper: 16384 molecules / 40 steps, list updated every 20/15/11.\n"
      "Here:  same counts; cutoff 4.6 (~400 partners/molecule), RCB.\n\n");

  harness::Table table("Moldyn - 8 processor results");

  for (const int interval : {20, 15, 11}) {
    const moldyn::Params p = paper_params(interval);
    const moldyn::System sys = moldyn::make_system(p);
    const auto seq = moldyn::run_seq(p, sys);

    char group[96];
    std::snprintf(group, sizeof(group), "Every %d iterations (seq = %.2f s)",
                  interval, seq.seconds);

    api::BackendOptions opts = moldyn::default_options();
    opts.region_bytes = 1u << 30;  // the 2-int interaction list dominates
    for (const api::Backend b : api::kAllBackends) {
      const auto r = moldyn::run(b, p, sys, opts);
      char note[64] = "";
      if (b == api::Backend::kChaos) {
        std::snprintf(note, sizeof(note), "inspector %.3f s/node x%lld runs",
                      r.overhead_seconds, static_cast<long long>(r.rebuilds));
      } else if (b == api::Backend::kTmkOptimized) {
        std::snprintf(note, sizeof(note), "list scan %.4f s/node",
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
      "Expected shape (paper Table 1): Tmk optimized fastest; Tmk base\n"
      "sends ~3-4x the messages of CHAOS (page-at-a-time); Tmk opt\n"
      "messages comparable to CHAOS; the Tmk advantage grows as the update\n"
      "interval shrinks because CHAOS reruns its inspector at every list\n"
      "rebuild while Validate only rescans the indirection array.\n");
  return 0;
}
