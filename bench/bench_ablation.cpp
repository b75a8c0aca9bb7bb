// Ablations of the design choices DESIGN.md calls out:
//
//  A. Communication aggregation (the contribution itself): messages for a
//     multi-page working set, demand paging vs Validate (one request pair
//     per producer).  In-text claim E4: base sends one pair per page.
//  B. WRITE_ALL whole-page shipping: the pipelined reduction with the
//     optimization on vs off (in-text claim E5: reductions in the base
//     program cause "multiple overlapping diffs" per page; flagging
//     whole-section writes ships one page instead).
//  C. False sharing sensitivity (E6): nbf data volume as block boundaries
//     slide within pages.
#include <cstdio>
#include <iostream>

#include "bench/bench_params.hpp"
#include "src/apps/nbf/nbf_kernel.hpp"
#include "src/core/descriptor.hpp"
#include "src/core/dsm.hpp"
#include "src/harness/experiment.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::apps;

// --- A: aggregation --------------------------------------------------------

void ablation_aggregation() {
  harness::Table t("A. Aggregation: fetch of a 32-page remote working set");
  for (const bool use_validate : {false, true}) {
    core::DsmConfig cfg;
    cfg.num_nodes = 2;
    cfg.region_bytes = 4u << 20;
    core::DsmRuntime rt(cfg);
    const std::size_t n = 32 * 512;  // 32 pages of doubles
    auto arr = rt.alloc_global<double>(n);
    rt.run([&](core::DsmNode& self) {
      double* p = self.ptr(arr);
      if (self.id() == 0) {
        for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<double>(i);
      }
      self.barrier();
      if (self.id() == 1) {
        if (use_validate) {
          self.validate({core::DescriptorBuilder::array(arr)
                             .elements(0, static_cast<std::int64_t>(n) - 1)
                             .schedule(0)
                             .read()});
        }
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i) sum += p[i];
        SDSM_ASSERT(sum > 0);
      }
      self.barrier();
    });
    t.add(harness::Row{"32 pages from 1 producer",
                       use_validate ? "Validate (aggregated)" : "demand paging",
                       0, 0, rt.total_messages(), rt.total_megabytes(),
                       0, use_validate ? "1 request pair" : "1 pair per page"});
  }
  t.print(std::cout);
}

// --- B: WRITE_ALL ----------------------------------------------------------

void ablation_write_all() {
  harness::Table t("B. WRITE_ALL: nbf pipelined reduction, whole-page mode");
  for (const bool write_all : {true, false}) {
    nbf::Params p;
    p.molecules = 8192;
    p.partners = 16;
    p.timed_steps = 6;
    p.nprocs = 4;
    api::BackendOptions opts = nbf::default_options();
    opts.region_bytes = 8u << 20;
    opts.write_all_enabled = write_all;
    const auto r = nbf::run(api::Backend::kTmkOptimized, p, opts);
    char note[96];
    std::snprintf(note, sizeof(note),
                  "twins=%llu whole_pages=%llu diff_bytes=%llu",
                  static_cast<unsigned long long>(r.tmk.twins_created),
                  static_cast<unsigned long long>(r.tmk.whole_pages),
                  static_cast<unsigned long long>(r.tmk.diff_bytes));
    t.add(harness::Row{"nbf 8192x16, 4 nodes",
                       write_all ? "WRITE_ALL on" : "WRITE_ALL off", r.seconds,
                       0, r.messages, r.megabytes, 0, note});
  }
  t.print(std::cout);
  std::printf("Paper (Sec 5.1.1): flagging whole-section writes makes the\n"
              "runtime send the page instead of accumulated overlapping\n"
              "diffs, cutting data volume; twins drop to zero as well.\n\n");
}

// --- C: false sharing ------------------------------------------------------

void ablation_false_sharing() {
  harness::Table t("C. False sharing: nbf block alignment sweep (4 nodes)");
  for (const std::int64_t molecules : {8192, 8064, 8000, 7936}) {
    nbf::Params p;
    p.molecules = molecules;
    p.partners = 16;
    p.timed_steps = 6;
    p.nprocs = 4;
    api::BackendOptions opts = nbf::default_options();
    opts.region_bytes = 8u << 20;
    const auto r = nbf::run(api::Backend::kTmkOptimized, p, opts);
    const std::int64_t per_node = molecules / 4;
    char group[64];
    std::snprintf(group, sizeof(group), "%lld molecules (%lld/node)",
                  static_cast<long long>(molecules),
                  static_cast<long long>(per_node));
    t.add(harness::Row{group, per_node % 512 == 0 ? "aligned" : "misaligned",
                       r.seconds, 0, r.messages, r.megabytes, 0, ""});
  }
  t.print(std::cout);
  std::printf("Paper (Sec 5.2.1): the 64x1000 size introduces false sharing\n"
              "at partition boundaries, costing TreadMarks extra messages\n"
              "and data relative to the aligned 64x1024 size.\n");
}

}  // namespace

int main() {
  std::printf("Ablation benches for the DESIGN.md design choices.\n\n");
  ablation_aggregation();
  ablation_write_all();
  ablation_false_sharing();
  return 0;
}
