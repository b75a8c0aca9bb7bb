// In-text claim sweep (Sections 1, 5.1.1, 7): "The advantage of our
// approach increases as the frequency of changes to the indirection array
// increases" and "if we include the execution time of the inspector, the
// software DSM-based approach is always faster than CHAOS".
//
// This driver sweeps the moldyn interaction-list update interval from
// every-4 to every-32 steps and prints one series per system — the
// figure-style companion to Table 1's three sampled intervals.  CHAOS pays
// one inspector run per rebuild; Tmk optimized pays one Read_indices scan.
#include <cstdio>
#include <iostream>

#include "bench/bench_params.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/harness/experiment.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::apps;

moldyn::Params sweep_params(int update_interval) {
  moldyn::Params p;
  p.num_molecules = 8192;  // half of Table 1's size: the sweep runs 5 points
  p.num_steps = 32;
  p.update_interval = update_interval;
  p.box = 20.2;   // unit lattice density
  p.cutoff = 3.7; // ~400 partners/molecule, as Table 1
  p.nprocs = bench::kNodes;
  return p;
}

}  // namespace

int main() {
  std::printf(
      "Update-frequency sweep: moldyn, %u processors, 8192 molecules,\n"
      "32 steps; the interaction list is rebuilt every N steps.\n\n",
      bench::kNodes);

  harness::Table table("Moldyn vs update interval (rebuilds = 32/N)");

  for (const int interval : {32, 16, 8, 4}) {
    const moldyn::Params p = sweep_params(interval);
    const moldyn::System sys = moldyn::make_system(p);
    const auto seq = moldyn::run_seq(p, sys);

    char group[96];
    std::snprintf(group, sizeof(group), "Every %d steps (seq = %.2f s)",
                  interval, seq.seconds);

    {
      const auto r = moldyn::run(api::Backend::kChaos, p, sys);
      char note[64];
      std::snprintf(note, sizeof(note), "inspector %.3f s/node x%lld",
                    r.overhead_seconds, static_cast<long long>(r.rebuilds));
      table.add(harness::Row{group, "CHAOS", r.seconds,
                             harness::speedup(seq.seconds, r.seconds),
                             r.messages, r.megabytes, r.overhead_seconds,
                             note});
    }
    {
      api::BackendOptions opts = moldyn::default_options();
      opts.region_bytes = 512u << 20;
      const auto r = moldyn::run(api::Backend::kTmkOptimized, p, sys, opts);
      char note[64];
      std::snprintf(note, sizeof(note), "list scan %.4f s/node",
                    r.overhead_seconds);
      table.add(harness::Row{group, "Tmk optimized", r.seconds,
                             harness::speedup(seq.seconds, r.seconds),
                             r.messages, r.megabytes, r.overhead_seconds,
                             note});
    }
  }

  table.print(std::cout);

  std::printf(
      "Expected shape: as the interval shrinks (more rebuilds), CHAOS's\n"
      "time grows by one inspector run per rebuild while Tmk optimized\n"
      "only rescans the list; the Tmk advantage therefore widens.\n");
  return 0;
}
