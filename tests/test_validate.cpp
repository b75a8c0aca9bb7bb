// Tests for the Validate aggregation layer (the paper's contribution):
// indirect prefetching, indirection-array change detection through write
// protection, communication aggregation, preemptive twinning, and the
// WRITE_ALL whole-page mode.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/descriptor.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::core {
namespace {

DsmConfig small_config(std::uint32_t nodes) {
  DsmConfig cfg;
  cfg.num_nodes = nodes;
  cfg.region_bytes = 2u << 20;
  return cfg;
}

rsd::ArrayLayout layout1d(std::int64_t n) { return rsd::ArrayLayout{{n}, true}; }

TEST(Validate, DirectReadPrefetchesInvalidPages) {
  DsmRuntime rt(small_config(2));
  const std::size_t n = 4096;  // 4 pages of ints
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<int>(2 * i);
    }
    self.barrier();
    if (self.id() == 1) {
      self.validate({DescriptorBuilder::array(arr, layout1d(n))
                         .elements(0, n - 1)
                         .read()});
      // All pages fetched up front: the scan below must not fault.
      const auto faults_before = rt.stats().read_faults.get();
      long long sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += p[i];
      EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1));
      EXPECT_EQ(rt.stats().read_faults.get(), faults_before);
    }
    self.barrier();
  });
  EXPECT_GT(rt.stats().pages_prefetched.get(), 0u);
}

TEST(Validate, AggregationUsesOneMessagePairPerProducer) {
  DsmRuntime rt(small_config(2));
  const std::size_t n = 8 * 1024;  // 8 pages
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) p[i] = 1;
    }
    self.barrier();
    if (self.id() == 1) {
      const auto msgs_before = rt.total_messages();
      self.validate({DescriptorBuilder::array(arr, layout1d(n))
                         .elements(0, n - 1)
                         .read()});
      // One request + one reply, vs 8 pairs under demand paging.
      EXPECT_EQ(rt.total_messages() - msgs_before, 2u);
    }
    self.barrier();
  });
  EXPECT_EQ(rt.stats().pages_prefetched.get(), 8u);
}

TEST(Validate, IndirectPrefetchFollowsIndirectionArray) {
  DsmRuntime rt(small_config(2));
  const std::size_t nd = 8 * 512;  // 8 pages of doubles
  const std::size_t ni = 64;
  auto data = rt.alloc_global<double>(nd);
  auto ind = rt.alloc_global<std::int32_t>(ni);
  rt.run([&](DsmNode& self) {
    double* d = self.ptr(data);
    std::int32_t* ix = self.ptr(ind);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < nd; ++i) d[i] = static_cast<double>(i);
      // Indices touch only pages 1 and 3 of the data array.
      for (std::size_t i = 0; i < ni; ++i) {
        ix[i] = static_cast<std::int32_t>((i % 2 == 0) ? 512 + i : 3 * 512 + i);
      }
    }
    self.barrier();
    if (self.id() == 1) {
      self.validate({DescriptorBuilder::array(data)
                         .via(ind, layout1d(ni),
                              rsd::RegularSection::dense1d(0, ni - 1))
                         .read()});
      const auto faults_before = rt.stats().read_faults.get();
      double sum = 0;
      for (std::size_t i = 0; i < ni; ++i) sum += d[ix[i]];
      EXPECT_GT(sum, 0.0);
      EXPECT_EQ(rt.stats().read_faults.get(), faults_before);
    }
    self.barrier();
  });
  EXPECT_EQ(rt.stats().validate_recomputes.get(), 1u);
}

TEST(Validate, PageSetIsCachedWhileIndirectionUnchanged) {
  DsmRuntime rt(small_config(2));
  auto data = rt.alloc_global<double>(2048);
  auto ind = rt.alloc_global<std::int32_t>(32);
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) {
      for (int i = 0; i < 32; ++i) self.ptr(ind)[i] = i * 13;
    }
    self.barrier();
    const auto desc = DescriptorBuilder::array(data)
                          .via(ind, layout1d(32),
                               rsd::RegularSection::dense1d(0, 31))
                          .read();
    for (int iter = 0; iter < 5; ++iter) {
      self.validate({desc});
      self.barrier();
    }
  });
  // Read_indices ran exactly once per node: the write-protect trap never
  // fired because the indirection array never changed.
  EXPECT_EQ(rt.stats().validate_recomputes.get(), 2u);
  EXPECT_EQ(rt.stats().validate_calls.get(), 10u);
}

TEST(Validate, LocalWriteToIndirectionArrayTriggersRecompute) {
  DsmRuntime rt(small_config(1));
  auto data = rt.alloc_global<double>(2048);
  auto ind = rt.alloc_global<std::int32_t>(32);
  rt.run([&](DsmNode& self) {
    std::int32_t* ix = self.ptr(ind);
    for (int i = 0; i < 32; ++i) ix[i] = i;
    const auto desc = DescriptorBuilder::array(data)
                          .via(ind, layout1d(32),
                               rsd::RegularSection::dense1d(0, 31))
                          .read();
    self.validate({desc});
    EXPECT_EQ(rt.stats().validate_recomputes.get(), 1u);
    self.validate({desc});
    EXPECT_EQ(rt.stats().validate_recomputes.get(), 1u);  // cached

    ix[5] = 100;  // faults on the write-protected page, flags the schedule

    self.validate({desc});
    EXPECT_EQ(rt.stats().validate_recomputes.get(), 2u);  // recomputed
  });
}

TEST(Validate, RemoteWriteToIndirectionArrayTriggersRecompute) {
  DsmRuntime rt(small_config(2));
  auto data = rt.alloc_global<double>(2048);
  auto ind = rt.alloc_global<std::int32_t>(32);
  rt.run([&](DsmNode& self) {
    const auto desc = DescriptorBuilder::array(data)
                          .via(ind, layout1d(32),
                               rsd::RegularSection::dense1d(0, 31))
                          .read();
    if (self.id() == 0) {
      for (int i = 0; i < 32; ++i) self.ptr(ind)[i] = i;
    }
    self.barrier();
    self.validate({desc});
    self.barrier();

    if (self.id() == 0) self.ptr(ind)[3] = 99;  // remote change for node 1
    self.barrier();

    const auto before = rt.stats().validate_recomputes.get();
    self.validate({desc});
    const auto after = rt.stats().validate_recomputes.get();
    EXPECT_GT(after, before);  // both nodes recompute
    self.barrier();
    // New page set is correct: reading through the new index works.
    EXPECT_EQ(self.ptr(ind)[3], 99);
  });
}

TEST(Validate, PrefetchedDataMatchesDemandPagedData) {
  // The optimized path must deliver byte-identical data to demand paging.
  for (const bool use_validate : {false, true}) {
    DsmRuntime rt(small_config(2));
    const std::size_t n = 6 * 512;
    auto arr = rt.alloc_global<double>(n);
    double got[2] = {0, 0};
    rt.run([&](DsmNode& self) {
      double* p = self.ptr(arr);
      if (self.id() == 0) {
        for (std::size_t i = 0; i < n; ++i) p[i] = i * 0.5;
      }
      self.barrier();
      if (self.id() == 1) {
        if (use_validate) {
          self.validate({DescriptorBuilder::array(arr, layout1d(n))
                             .elements(0, n - 1)
                             .read()});
        }
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i) sum += p[i];
        got[1] = sum;
      }
      self.barrier();
    });
    const double expect = 0.5 * (static_cast<double>(n - 1) * n / 2);
    EXPECT_EQ(got[1], expect);
  }
}

TEST(Validate, PreTwinningAvoidsWriteFaults) {
  DsmRuntime rt(small_config(2));
  const std::size_t n = 4 * 1024;
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    self.barrier();
    if (self.id() == 1) {
      self.validate({DescriptorBuilder::array(arr, layout1d(n))
                         .elements(0, n - 1)
                         .read_write()});
      const auto wf_before = rt.stats().write_faults.get();
      int* p = self.ptr(arr);
      for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<int>(i);
      EXPECT_EQ(rt.stats().write_faults.get(), wf_before);  // no faults
    }
    self.barrier();
    EXPECT_EQ(self.ptr(arr)[100], 100);
  });
  EXPECT_GT(rt.stats().twins_created.get(), 0u);
}

TEST(Validate, WriteAllSkipsTwinsAndShipsWholePages) {
  DsmRuntime rt(small_config(2));
  const std::size_t n = 4 * 1024;  // 4 pages of ints
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      self.validate({DescriptorBuilder::array(arr, layout1d(n))
                         .elements(0, n - 1)
                         .write_all()});
      for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<int>(i + 7);
    }
    self.barrier();
    for (std::size_t i = 0; i < n; i += 97) {
      EXPECT_EQ(p[i], static_cast<int>(i + 7));
    }
    self.barrier();
  });
  EXPECT_EQ(rt.stats().twins_created.get(), 0u);
  EXPECT_GT(rt.stats().whole_pages.get(), 0u);
}

TEST(Validate, WriteAllDisabledFallsBackToTwins) {
  DsmConfig cfg = small_config(2);
  cfg.write_all_enabled = false;
  DsmRuntime rt(cfg);
  const std::size_t n = 2 * 1024;
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      self.validate({DescriptorBuilder::array(arr, layout1d(n))
                         .elements(0, n - 1)
                         .write_all()});
      for (std::size_t i = 0; i < n; ++i) p[i] = 5;
    }
    self.barrier();
    EXPECT_EQ(p[n - 1], 5);
    self.barrier();
  });
  EXPECT_GT(rt.stats().twins_created.get(), 0u);
}

TEST(Validate, ReadWriteAllReductionChainAcrossNodes) {
  // The pipelined reduction pattern from the paper: each round, one node
  // reads and rewrites an entire chunk.  Rounds are barrier-ordered, so the
  // whole-page supersede rule lets later readers fetch only the newest page.
  const std::uint32_t nodes = 4;
  DsmRuntime rt(small_config(nodes));
  const std::size_t n = 1024;  // one page of ints
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    for (std::uint32_t round = 0; round < nodes; ++round) {
      if (round == self.id()) {
        self.validate({DescriptorBuilder::array(arr, layout1d(n))
                           .elements(0, n - 1)
                           .read_write_all()});
        for (std::size_t i = 0; i < n; ++i) p[i] = p[i] + 1;
      }
      self.barrier();
    }
    for (std::size_t i = 0; i < n; i += 31) {
      EXPECT_EQ(p[i], static_cast<int>(nodes));
    }
  });
  EXPECT_GT(rt.stats().whole_pages.get(), 0u);
}

TEST(Validate, MultipleDescriptorsFetchInOneCall) {
  DsmRuntime rt(small_config(2));
  auto a = rt.alloc_global<int>(1024);
  auto b = rt.alloc_global<double>(512);
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) {
      for (int i = 0; i < 1024; ++i) self.ptr(a)[i] = i;
      for (int i = 0; i < 512; ++i) self.ptr(b)[i] = i * 1.5;
    }
    self.barrier();
    if (self.id() == 1) {
      const auto msgs_before = rt.total_messages();
      self.validate(
          {DescriptorBuilder::array(a, layout1d(1024)).elements(0, 1023).read(),
           DescriptorBuilder::array(b, layout1d(512))
               .elements(0, 511)
               .schedule(1)
               .read()});
      // Both arrays come from node 0 in a single request/reply pair.
      EXPECT_EQ(rt.total_messages() - msgs_before, 2u);
      EXPECT_EQ(self.ptr(a)[1000], 1000);
      EXPECT_EQ(self.ptr(b)[500], 750.0);
    }
    self.barrier();
  });
}

TEST(Validate, StridedIndirectionSection) {
  // Validate only the even entries of the indirection array (a regular
  // section with stride 2), as the compiler would emit for a strided loop.
  DsmRuntime rt(small_config(2));
  auto data = rt.alloc_global<double>(4096);
  auto ind = rt.alloc_global<std::int32_t>(64);
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) {
      for (int i = 0; i < 64; ++i) self.ptr(ind)[i] = i * 61;
      for (int i = 0; i < 4096; ++i) self.ptr(data)[i] = i;
    }
    self.barrier();
    if (self.id() == 1) {
      self.validate({DescriptorBuilder::array(data)
                         .via(ind, layout1d(64),
                              rsd::RegularSection({rsd::Dim{0, 63, 2}}))
                         .read()});
      const auto faults_before = rt.stats().read_faults.get();
      double sum = 0;
      for (int i = 0; i < 64; i += 2) sum += self.ptr(data)[self.ptr(ind)[i]];
      EXPECT_GT(sum, 0);
      EXPECT_EQ(rt.stats().read_faults.get(), faults_before);
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Cross-step prefetch (post_validate_prefetch): the requests go on the
// wire at the barrier exit and complete at first use, with exactly the
// traffic a plain validate of the same descriptors would have produced.
// ---------------------------------------------------------------------------

TEST(CrossStepPrefetch, SameMessagesAsPlainValidateAndNoFaults) {
  const std::size_t n = 8 * 1024;  // 8 pages of ints
  const auto run_reader = [&](bool prefetch) {
    DsmRuntime rt(small_config(2));
    auto arr = rt.alloc_global<int>(n);
    std::uint64_t messages = 0;
    rt.run([&](DsmNode& self) {
      int* p = self.ptr(arr);
      if (self.id() == 0) {
        for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<int>(i);
      }
      self.barrier();
      const auto desc = DescriptorBuilder::array(arr, layout1d(n))
                            .elements(0, n - 1)
                            .read();
      if (self.id() == 1) {
        // The pages are final at the barrier exit: node 0 wrote them
        // before arriving.  Posting here is the prefetch-past-
        // synchronization move the deterministic schedule allows.
        if (prefetch) self.post_validate_prefetch({desc});
        self.validate({desc});
        const auto faults_before = rt.stats().read_faults.get();
        long long sum = 0;
        for (std::size_t i = 0; i < n; ++i) sum += p[i];
        EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
        EXPECT_EQ(rt.stats().read_faults.get(), faults_before);
      }
      self.barrier();
    });
    messages = rt.total_messages();
    return messages;
  };
  // Identical traffic: the prefetch moves the wait, not the messages.
  EXPECT_EQ(run_reader(false), run_reader(true));
}

TEST(CrossStepPrefetch, FaultOnPrefetchedPageConsumesInFlightRequests) {
  const std::size_t n = 4096;  // 4 pages of ints
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) p[i] = 7;
    }
    self.barrier();
    if (self.id() == 1) {
      self.post_validate_prefetch(
          {DescriptorBuilder::array(arr, layout1d(n))
               .elements(0, n - 1)
               .read()});
      EXPECT_GT(rt.stats().cross_prefetch_posts.get(), 0u);
      // Touch the data with no validate in between: the fault handler
      // must complete the in-flight fetch instead of issuing a second
      // demand round trip, and later pages must already be valid.
      long long sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += p[i];
      EXPECT_EQ(sum, 7ll * static_cast<long long>(n));
    }
    self.barrier();
  });
}

TEST(CrossStepPrefetch, BarrierConsumesOutstandingPrefetch) {
  // The safety net of the contract: a posted prefetch never straddles a
  // synchronization operation, so an application that posts and then
  // never touches the pages still ends the step with clean protocol
  // state (and the data correct afterwards).
  const std::size_t n = 4096;
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(n);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) p[i] = 3;
    }
    self.barrier();
    if (self.id() == 1) {
      self.post_validate_prefetch(
          {DescriptorBuilder::array(arr, layout1d(n))
               .elements(0, n - 1)
               .read()});
    }
    self.barrier();  // must complete, not leak, the in-flight tickets
    if (self.id() == 1) {
      long long sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += p[i];
      EXPECT_EQ(sum, 3ll * static_cast<long long>(n));
    }
    self.barrier();
  });
}

TEST(CrossStepPrefetch, ValidPagesAndStaleSchedulesAreNotPrefetched) {
  // Valid pages need no traffic, and a stale indirect schedule (whose page
  // set would need a Read_indices scan) is left for validate(): both must
  // make the post a no-op rather than a wrong guess.
  DsmRuntime rt(small_config(2));
  auto data = rt.alloc_global<double>(4096);
  auto ind = rt.alloc_global<std::int32_t>(64);
  rt.run([&](DsmNode& self) {
    if (self.id() == 1) {
      const auto posts_before = rt.stats().cross_prefetch_posts.get();
      // Never-synchronized pages are still valid: nothing to fetch.
      self.post_validate_prefetch(
          {DescriptorBuilder::array(data, layout1d(4096))
               .elements(0, 4095)
               .read()});
      // Schedule 42 has never been validated: its page set is unknown.
      self.post_validate_prefetch(
          {DescriptorBuilder::array(data)
               .via(ind, layout1d(64), rsd::RegularSection::dense1d(0, 63))
               .schedule(42)
               .read()});
      EXPECT_EQ(rt.stats().cross_prefetch_posts.get(), posts_before);
    }
    self.barrier();
  });
}

}  // namespace
}  // namespace sdsm::core
