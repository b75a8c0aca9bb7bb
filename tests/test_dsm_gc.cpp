// Diff-store garbage collection: the barrier-piggybacked flush-and-drop
// round (TreadMarks GC).  A tiny threshold forces collections mid-run; the
// tests check that data survives, that the stores actually shrink, and that
// Validate schedules keep working across collections.
#include <gtest/gtest.h>

#include "src/core/descriptor.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::core {
namespace {

DsmConfig gc_config(std::uint32_t nodes, std::size_t threshold) {
  DsmConfig cfg;
  cfg.num_nodes = nodes;
  cfg.region_bytes = 8u << 20;
  cfg.gc_threshold_bytes = threshold;
  return cfg;
}

TEST(DsmGc, CollectsAndPreservesData) {
  // Each node rewrites its own block every step but only reads its
  // neighbour's block, so distant blocks stay lazily pending — the GC
  // flush round must fetch them.  A 64KB threshold forces several
  // collections; the final audit checks nothing was lost.
  const std::uint32_t nodes = 4;
  const int steps = 12;
  const int per = 4096;  // ints per node block (4 pages)
  DsmRuntime rt(gc_config(nodes, 64 << 10));
  auto arr = rt.alloc_global<int>(nodes * per);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    const int lo = static_cast<int>(self.id()) * per;
    for (int s = 0; s < steps; ++s) {
      for (int i = lo; i < lo + per; ++i) p[i] = s * 1000003 + i;
      self.barrier();
      // Read only the next node's block; other blocks stay pending.
      const int nlo = (static_cast<int>(self.id() + 1) % nodes) * per;
      for (int i = nlo; i < nlo + per; ++i) {
        if (p[i] != s * 1000003 + i) {
          std::fprintf(stderr, "node %u step %d elem %d: got %d\n", self.id(),
                       s, i, p[i]);
          std::abort();
        }
      }
      self.barrier();
    }
    // Final audit: everything, including blocks never read mid-run.
    for (int i = 0; i < static_cast<int>(nodes) * per; ++i) {
      if (p[i] != (steps - 1) * 1000003 + i) {
        std::fprintf(stderr, "node %u final elem %d: got %d\n", self.id(), i,
                     p[i]);
        std::abort();
      }
    }
    self.barrier();
  });
  EXPECT_GT(rt.stats().gc_runs.get(), 0u);
  EXPECT_GT(rt.stats().gc_pages_flushed.get(), 0u);
}

TEST(DsmGc, DisabledWhenThresholdZero) {
  DsmRuntime rt(gc_config(2, 0));
  auto arr = rt.alloc_global<int>(8192);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    for (int s = 0; s < 6; ++s) {
      if (self.id() == 0) {
        for (int i = 0; i < 8192; ++i) p[i] = s + i;
      }
      self.barrier();
      if (self.id() == 1 && p[100] != s + 100) std::abort();
      self.barrier();
    }
  });
  EXPECT_EQ(rt.stats().gc_runs.get(), 0u);
}

TEST(DsmGc, ValidateSchedulesSurviveCollection) {
  // An INDIRECT schedule's cached page set and watch protection must keep
  // detecting indirection changes across GC flush/drop rounds.
  const std::uint32_t nodes = 2;
  DsmRuntime rt(gc_config(nodes, 32 << 10));
  const std::int64_t n = 4096;
  auto data = rt.alloc_global<double>(n);
  auto idx = rt.alloc_global<std::int32_t>(n);
  rt.run([&](DsmNode& self) {
    double* d = self.ptr(data);
    std::int32_t* ix = self.ptr(idx);
    for (int s = 0; s < 8; ++s) {
      if (self.id() == 0) {
        for (std::int64_t i = 0; i < n; ++i) {
          d[i] = s * 10.0 + static_cast<double>(i);
          ix[i] = static_cast<std::int32_t>((i * 7 + s) % n);
        }
      }
      self.barrier();
      if (self.id() == 1) {
        self.validate({DescriptorBuilder::array(data)
                           .via(idx, rsd::ArrayLayout{{n}, true},
                                rsd::RegularSection::dense1d(0, n - 1))
                           .schedule(7)
                           .read()});
        double sum = 0;
        for (std::int64_t i = 0; i < n; ++i) sum += d[ix[i]];
        double expect = 0;
        for (std::int64_t i = 0; i < n; ++i) {
          expect += s * 10.0 + static_cast<double>((i * 7 + s) % n);
        }
        if (sum != expect) std::abort();
      }
      self.barrier();
    }
  });
  // The index array changes every step, so every step recomputes.
  EXPECT_GE(rt.stats().validate_recomputes.get(), 8u);
  EXPECT_GT(rt.stats().gc_runs.get(), 0u);
}

TEST(DsmGc, RepeatedCollectionsStayStable) {
  // Many tiny collections in sequence: regression guard for the MetaLog
  // base-offset bookkeeping.
  const std::uint32_t nodes = 3;
  DsmRuntime rt(gc_config(nodes, 8 << 10));
  auto arr = rt.alloc_global<int>(3 * 2048);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    const int lo = static_cast<int>(self.id()) * 2048;
    for (int s = 0; s < 20; ++s) {
      for (int i = lo; i < lo + 2048; ++i) p[i] = s ^ i;
      self.barrier();
      const int peer = (static_cast<int>(self.id()) + 1) % 3;
      for (int i = peer * 2048; i < peer * 2048 + 2048; ++i) {
        if (p[i] != (s ^ i)) std::abort();
      }
      self.barrier();
    }
  });
  EXPECT_GE(rt.stats().gc_runs.get(), 2u);
}

}  // namespace
}  // namespace sdsm::core
