// Reproduces the paper's in-text inspector-overhead claims (Sections 5.1.1
// and 5.2.1):
//   - CHAOS pays seconds per inspector run (hash + translation + request
//     exchange), growing with update frequency; TreadMarks pays a far
//     smaller Read_indices scan, triggered only when the indirection array
//     actually changed (write-protection detection).
//   - "If we include the execution time of the inspector, the software
//     DSM-based approach is always faster than CHAOS."
#include <cstdio>
#include <iostream>

#include "bench/bench_params.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/nbf/nbf_kernel.hpp"
#include "src/harness/experiment.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::apps;

}  // namespace

int main() {
  std::printf("Inspector overhead vs indirection-array scan (in-text "
              "claims, Secs 5.1.1/5.2.1).\n\n");

  // --- Moldyn: overhead as a function of update frequency. -----------------
  harness::Table t1("Moldyn: per-run overhead vs list update interval");
  bool tmk_always_faster_with_inspector = true;
  for (const int interval : {12, 8, 6, 4}) {
    moldyn::Params p;
    p.num_molecules = 4096;
    p.num_steps = 24;
    p.update_interval = interval;
    p.nprocs = bench::kNodes;
    const moldyn::System sys = moldyn::make_system(p);

    api::BackendOptions opts = moldyn::default_options();
    opts.wire = bench::sp2_wire();
    opts.region_bytes = 16u << 20;
    const auto ch = moldyn::run(api::Backend::kChaos, p, sys, opts);
    const auto tk = moldyn::run(api::Backend::kTmkOptimized, p, sys, opts);

    char group[64];
    std::snprintf(group, sizeof(group), "update every %d steps", interval);
    char note[96];
    std::snprintf(note, sizeof(note), "%lld inspector runs",
                  static_cast<long long>(ch.rebuilds));
    t1.add(harness::Row{group, "CHAOS", ch.seconds, 0, ch.messages,
                        ch.megabytes, ch.overhead_seconds, note});
    t1.add(harness::Row{group, "Tmk optimized", tk.seconds, 0, tk.messages,
                        tk.megabytes, tk.overhead_seconds, "Validate scan"});
    if (tk.seconds >= ch.seconds) tmk_always_faster_with_inspector = false;
  }
  t1.print(std::cout);
  std::printf("Moldyn run time includes the inspector (as in Table 1): "
              "Tmk-opt faster in every configuration: %s\n\n",
              tmk_always_faster_with_inspector ? "YES (matches paper)"
                                               : "NO (differs from paper)");

  // --- NBF: one-time inspector vs per-step scan check. ---------------------
  harness::Table t2("NBF: one-time inspector vs Validate scan");
  {
    nbf::Params p;
    p.molecules = 16384;
    p.partners = 32;
    p.timed_steps = 10;
    p.nprocs = bench::kNodes;

    api::BackendOptions opts = nbf::default_options();
    opts.wire = bench::sp2_wire();
    opts.region_bytes = 16u << 20;
    const auto ch = nbf::run(api::Backend::kChaos, p, opts);
    const auto tk = nbf::run(api::Backend::kTmkOptimized, p, opts);

    t2.add(harness::Row{"16 x 1024", "CHAOS", ch.seconds, 0, ch.messages,
                        ch.megabytes, ch.overhead_seconds,
                        "inspector excluded from time"});
    t2.add(harness::Row{"16 x 1024", "Tmk optimized", tk.seconds, 0,
                        tk.messages, tk.megabytes, tk.overhead_seconds,
                        "scan paid in warmup"});
    std::printf("\n");
    t2.print(std::cout);
    std::printf(
        "Including the untimed inspector, CHAOS total = %.3f s vs Tmk "
        "%.3f s -> %s (paper: Tmk always faster once the inspector "
        "counts).\n",
        ch.seconds + ch.overhead_seconds, tk.seconds,
        ch.seconds + ch.overhead_seconds > tk.seconds
            ? "Tmk faster (matches paper)"
            : "CHAOS faster (differs)");
  }
  return 0;
}
