// Integration tests for the DSM protocol engine: demand paging, lazy
// release consistency through barriers and locks, the multiple-writer
// protocol under false sharing, and message accounting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "src/core/dsm.hpp"

namespace sdsm::core {
namespace {

DsmConfig small_config(std::uint32_t nodes) {
  DsmConfig cfg;
  cfg.num_nodes = nodes;
  cfg.region_bytes = 1u << 20;  // 1 MB
  return cfg;
}

// Sanitizer runtimes shadow every touched byte and quarantine freed
// memory, so under them a resident-size delta measures the sanitizer, not
// the runtime: resident bounds are checked in uninstrumented builds only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kResidentBoundsHold = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kResidentBoundsHold = false;
#else
constexpr bool kResidentBoundsHold = true;
#endif
#else
constexpr bool kResidentBoundsHold = true;
#endif

/// Resident set size of this process in MB (/proc/self/statm).
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0;
  std::size_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/// Threads of this process (/proc/self/task), read once the count has held
/// still for a moment, so threads an earlier test joined have left it.
std::ptrdiff_t thread_count() {
  const auto count = [] {
    std::ptrdiff_t n = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++n;
    }
    return n;
  };
  std::ptrdiff_t n = count();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::ptrdiff_t again = count();
    if (again == n) return n;
    n = again;
  }
}

TEST(Dsm, SingleNodeReadWrite) {
  DsmRuntime rt(small_config(1));
  auto arr = rt.alloc_global<int>(100);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    for (int i = 0; i < 100; ++i) p[i] = i * i;
    self.barrier();
    for (int i = 0; i < 100; ++i) EXPECT_EQ(p[i], i * i);
  });
  // A single node exchanges no messages.
  EXPECT_EQ(rt.total_messages(), 0u);
}

TEST(Dsm, SharedMemoryStartsZeroed) {
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<double>(64);
  rt.run([&](DsmNode& self) {
    const double* p = self.ptr(arr);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(p[i], 0.0);
  });
}

TEST(Dsm, WritesVisibleAfterBarrier) {
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(1000);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (int i = 0; i < 1000; ++i) p[i] = 7 * i;
    }
    self.barrier();
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(p[i], 7 * i);
  });
  EXPECT_GT(rt.total_messages(), 0u);
  EXPECT_GT(rt.stats().read_faults.get(), 0u);
  EXPECT_GT(rt.stats().diffs_created.get(), 0u);
}

TEST(Dsm, RepeatedProducerConsumerRounds) {
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(256);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    for (int round = 1; round <= 5; ++round) {
      if (self.id() == 0) {
        for (int i = 0; i < 256; ++i) p[i] = round * 1000 + i;
      }
      self.barrier();
      for (int i = 0; i < 256; ++i) EXPECT_EQ(p[i], round * 1000 + i);
      self.barrier();
    }
  });
}

TEST(Dsm, AlternatingWriters) {
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(16);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    for (int round = 0; round < 6; ++round) {
      if (self.id() == static_cast<NodeId>(round % 2)) {
        p[0] = round + 1;
      }
      self.barrier();
      EXPECT_EQ(p[0], round + 1);
      self.barrier();
    }
  });
}

TEST(Dsm, FalseSharingMergesThroughMultiWriterProtocol) {
  // Both nodes write disjoint halves of the same page concurrently; after
  // the barrier each must observe both halves (twin+diff merge).
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(1024);  // 4 KB: exactly one page
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    const int lo = self.id() == 0 ? 0 : 512;
    for (int i = lo; i < lo + 512; ++i) p[i] = 100000 * (self.id() + 1) + i;
    self.barrier();
    for (int i = 0; i < 512; ++i) EXPECT_EQ(p[i], 100000 + i);
    for (int i = 512; i < 1024; ++i) EXPECT_EQ(p[i], 200000 + i);
  });
}

TEST(Dsm, FourNodeQuarterPageFalseSharing) {
  DsmRuntime rt(small_config(4));
  auto arr = rt.alloc_global<int>(1024);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    const int lo = static_cast<int>(self.id()) * 256;
    for (int i = lo; i < lo + 256; ++i) p[i] = 1000 * (self.id() + 1) + i;
    self.barrier();
    for (int q = 0; q < 4; ++q) {
      for (int i = q * 256; i < (q + 1) * 256; ++i) {
        EXPECT_EQ(p[i], 1000 * (q + 1) + i);
      }
    }
  });
}

TEST(Dsm, LockProtectedCounter) {
  const std::uint32_t nodes = 4;
  const int rounds = 25;
  DsmRuntime rt(small_config(nodes));
  auto counter = rt.alloc_global<std::int64_t>(1);
  rt.run([&](DsmNode& self) {
    for (int i = 0; i < rounds; ++i) {
      self.lock_acquire(3);
      std::int64_t* c = self.ptr(counter);
      *c = *c + 1;
      self.lock_release(3);
    }
    self.barrier();
    EXPECT_EQ(*self.ptr(counter), static_cast<std::int64_t>(nodes) * rounds);
  });
  EXPECT_EQ(rt.stats().lock_acquires.get(), nodes * rounds);
}

TEST(Dsm, MultipleIndependentLocks) {
  const std::uint32_t nodes = 4;
  DsmRuntime rt(small_config(nodes));
  auto counters = rt.alloc_global<std::int64_t>(8);
  rt.run([&](DsmNode& self) {
    for (int i = 0; i < 10; ++i) {
      for (LockId l = 0; l < 8; ++l) {
        self.lock_acquire(l);
        std::int64_t* c = self.ptr(counters);
        // Each lock guards one slot; slots share pages, exercising
        // twin/diff merges under lock-based synchronization.
        c[l] = c[l] + 1;
        self.lock_release(l);
      }
    }
    self.barrier();
    const std::int64_t* c = self.ptr(counters);
    for (LockId l = 0; l < 8; ++l) EXPECT_EQ(c[l], 40);
  });
}

TEST(Dsm, ReleaseConsistencyThroughLockPair) {
  // Classic message-passing idiom: node 0 writes data then releases; node 1
  // acquires and must observe the data.
  DsmRuntime rt(small_config(2));
  auto data = rt.alloc_global<int>(600);  // spans multiple pages
  auto flag = rt.alloc_global<int>(1);
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) {
      int* p = self.ptr(data);
      for (int i = 0; i < 600; ++i) p[i] = i + 1;
      self.lock_acquire(0);
      *self.ptr(flag) = 1;
      self.lock_release(0);
    } else {
      for (;;) {
        self.lock_acquire(0);
        const int f = *self.ptr(flag);
        self.lock_release(0);
        if (f == 1) break;
      }
      const int* p = self.ptr(data);
      for (int i = 0; i < 600; ++i) EXPECT_EQ(p[i], i + 1);
    }
  });
}

TEST(Dsm, BarrierCountsMatchTopology) {
  const std::uint32_t nodes = 4;
  DsmRuntime rt(small_config(nodes));
  rt.run([&](DsmNode& self) {
    self.barrier();
    self.barrier();
  });
  // Each barrier: (N-1) arrivals + (N-1) releases; the manager's own pair
  // is loopback and uncounted.
  EXPECT_EQ(rt.total_messages(), 2u * 2u * (nodes - 1));
  EXPECT_EQ(rt.stats().barriers.get(), 2u * nodes);
}

TEST(Dsm, DemandPagingFetchesPageByPage) {
  // Base TreadMarks behaviour: reading K untouched remote pages costs one
  // request/reply pair per page.
  const std::size_t ints_per_page = vm::system_page_size() / sizeof(int);
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(8 * ints_per_page);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (std::size_t i = 0; i < 8 * ints_per_page; ++i) {
        p[i] = static_cast<int>(i);
      }
    }
    self.barrier();
    if (self.id() == 1) {
      long long sum = 0;
      for (std::size_t i = 0; i < 8 * ints_per_page; ++i) sum += p[i];
      const long long n = static_cast<long long>(8 * ints_per_page);
      EXPECT_EQ(sum, n * (n - 1) / 2);
    }
    self.barrier();
  });
  EXPECT_EQ(rt.stats().read_faults.get(), 8u);
  // 2 barriers (2 msgs each at N=2) + 8 pages * (request + reply).
  EXPECT_EQ(rt.total_messages(), 4u + 16u);
}

TEST(Dsm, DirtyPageSurvivesRemoteInvalidation) {
  // Node 0 and node 1 write the same page in different ranges; node 1 also
  // synchronizes through a lock mid-interval, which invalidates its dirty
  // copy (the early-diff path).  All writes must survive.
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(1024);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (int i = 0; i < 100; ++i) p[i] = 1000 + i;
      self.lock_acquire(1);
      self.lock_release(1);  // pushes node 0's interval to the home
    } else {
      for (int i = 512; i < 612; ++i) p[i] = 2000 + i;
      // Acquiring the same lock after node 0's release delivers node 0's
      // write notice and invalidates the (dirty) page.
      self.lock_acquire(1);
      self.lock_release(1);
      for (int i = 700; i < 750; ++i) p[i] = 3000 + i;  // write again
    }
    self.barrier();
    for (int i = 0; i < 100; ++i) EXPECT_EQ(p[i], 1000 + i);
    for (int i = 512; i < 612; ++i) EXPECT_EQ(p[i], 2000 + i);
    for (int i = 700; i < 750; ++i) EXPECT_EQ(p[i], 3000 + i);
  });
}

TEST(Dsm, EightNodeBlockSums) {
  const std::uint32_t nodes = 8;
  const int per = 512;
  DsmRuntime rt(small_config(nodes));
  auto arr = rt.alloc_global<int>(nodes * per);
  auto sums = rt.alloc_global<long long>(nodes);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    const int lo = static_cast<int>(self.id()) * per;
    for (int i = lo; i < lo + per; ++i) p[i] = i;
    self.barrier();
    // Everyone sums everyone's block: all-to-all demand fetches.
    long long total = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (int i = 0; i < per; ++i) total += p[n * per + i];
    }
    self.ptr(sums)[self.id()] = total;
    self.barrier();
    const long long expect =
        static_cast<long long>(nodes * per) * (nodes * per - 1) / 2;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      EXPECT_EQ(self.ptr(sums)[n], expect);
    }
  });
}

TEST(Dsm, StatsResetBetweenPhases) {
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(64);
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) *self.ptr(arr) = 1;
    self.barrier();
    EXPECT_EQ(*self.ptr(arr), 1);
  });
  EXPECT_GT(rt.total_messages(), 0u);
  rt.reset_stats();
  EXPECT_EQ(rt.total_messages(), 0u);
  EXPECT_EQ(rt.stats().read_faults.get(), 0u);
}

TEST(Dsm, GlobalArraySliceAddressing) {
  DsmRuntime rt(small_config(1));
  auto arr = rt.alloc_global<int>(100);
  auto mid = arr.slice(50, 10);
  rt.run([&](DsmNode& self) {
    self.ptr(arr)[50] = 42;
    EXPECT_EQ(self.ptr(mid)[0], 42);
  });
}

TEST(Dsm, SequentialRunsPreserveState) {
  DsmRuntime rt(small_config(2));
  auto arr = rt.alloc_global<int>(10);
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) self.ptr(arr)[0] = 99;
    self.barrier();
  });
  rt.run([&](DsmNode& self) {
    EXPECT_EQ(self.ptr(arr)[0], 99);
  });
}

TEST(Dsm, WireModelRunStillCorrect) {
  DsmConfig cfg = small_config(2);
  cfg.wire.latency_us = 200;
  cfg.wire.us_per_kb = 50;
  DsmRuntime rt(cfg);
  auto arr = rt.alloc_global<int>(2048);
  rt.run([&](DsmNode& self) {
    int* p = self.ptr(arr);
    if (self.id() == 0) {
      for (int i = 0; i < 2048; ++i) p[i] = i ^ 0x55;
    }
    self.barrier();
    for (int i = 0; i < 2048; ++i) EXPECT_EQ(p[i], i ^ 0x55);
  });
}

// Without a wire model the in-process fabric runs each node's handlers on
// the threads that send to it, so a threads-mode runtime starts no thread
// of its own.  A wire model keeps one service thread per node, and the
// socket fabric adds its switch and one demux thread per node to those.
TEST(Dsm, InlineFabricStartsNoServiceThread) {
  constexpr std::uint32_t kNodes = 4;
  const auto growth = [](const DsmConfig& cfg) {
    const std::ptrdiff_t before = thread_count();
    DsmRuntime rt(cfg);
    return thread_count() - before;
  };
  EXPECT_EQ(growth(small_config(kNodes)), 0);
  DsmConfig wired = small_config(kNodes);
  wired.wire.latency_us = 0.001;
  EXPECT_EQ(growth(wired), kNodes);
  DsmConfig socket = small_config(kNodes);
  socket.transport = net::TransportKind::kSocket;
  EXPECT_EQ(growth(socket), kNodes + 1 + kNodes);
}

// Concurrent service from one store: each round node 0 rewrites 64 pages,
// and after the barrier the seven other nodes read all of them, so their
// read faults are served concurrently from node 0's diff store while every
// node also bumps a lock-protected counter homed at node 5.
//
// Node 0 takes the lock right after the barrier, often before node 5's
// compute thread has recorded the barrier's metas, so its release can
// reach the home ahead of them and wait in MetaLog::ahead; the inline
// fabric hits that window in most runs.  The jitter variant runs the same
// program with service threads and scrambled delivery.
void concurrent_faults_and_lock(const DsmConfig& cfg) {
  constexpr std::size_t kPages = 64;
  constexpr int kRounds = 8;
  DsmRuntime rt(cfg);
  const std::size_t per_page = rt.page_size() / sizeof(std::int64_t);
  const auto data = rt.alloc_global<std::int64_t>(kPages * per_page);
  const auto counter = rt.alloc_global<std::int64_t>(1);
  std::atomic<int> wrong_data{0};
  std::atomic<int> wrong_count{0};
  rt.run([&](DsmNode& self) {
    std::int64_t* p = self.ptr(data);
    for (int round = 1; round <= kRounds; ++round) {
      if (self.id() == 0) {
        for (std::size_t i = 0; i < kPages * per_page; i += 61) {
          p[i] = round * 1000003 + static_cast<std::int64_t>(i);
        }
      }
      self.barrier();
      if (self.id() != 0) {
        for (std::size_t i = 0; i < kPages * per_page; i += 61) {
          if (p[i] != round * 1000003 + static_cast<std::int64_t>(i)) {
            ++wrong_data;
          }
        }
      }
      self.lock_acquire(5);
      ++*self.ptr(counter);
      self.lock_release(5);
      self.barrier();
      const auto expected = round * static_cast<std::int64_t>(cfg.num_nodes);
      if (*self.ptr(counter) != expected) {
        ++wrong_count;
      }
    }
  });
  EXPECT_EQ(wrong_data.load(), 0);
  EXPECT_EQ(wrong_count.load(), 0);
  EXPECT_EQ(rt.stats().lock_acquires.get(), cfg.num_nodes * kRounds);
}

TEST(Dsm, ConcurrentFaultsServeFromOneStore) {
  concurrent_faults_and_lock(small_config(8));
}

TEST(Dsm, ConcurrentFaultsServeFromOneStoreUnderJitter) {
  DsmConfig cfg = small_config(8);
  cfg.wire.jitter_us = 50;
  concurrent_faults_and_lock(cfg);
}

TEST(MetaLog, HoldsMetasThatArriveAheadOfAGap) {
  const auto meta = [](std::uint32_t seq) {
    IntervalMeta m;
    m.id = IntervalId{2, seq};
    return m;
  };
  MetaLog log;
  log.insert(meta(1));
  log.insert(meta(3));
  log.insert(meta(4));
  log.insert(meta(3));
  EXPECT_EQ(log.max_seq(), 1u);
  EXPECT_EQ(log.ahead.size(), 2u);
  log.insert(meta(2));
  EXPECT_EQ(log.max_seq(), 4u);
  EXPECT_TRUE(log.ahead.empty());
  for (std::uint32_t s = 1; s <= 4; ++s) EXPECT_EQ(log.get(s).id.seq, s);
}

// Per-node page metadata covers the allocated heap, not the reserved
// region: four nodes over a 256 MB region would otherwise zero 65,536
// PageMetas each (~18.8 MB) before the first allocation.  The table grows
// with alloc_global, and reset_arena leaves it for a smaller job to regrow.
TEST(Dsm, PageMetadataFollowsTheHeap) {
  constexpr std::uint32_t kNodes = 4;
  DsmConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.region_bytes = 256u << 20;
  const double before = resident_mb();
  DsmRuntime rt(cfg);
  if (kResidentBoundsHold) {
    EXPECT_LT(resident_mb() - before, 2.0);
  }

  // Every node writes its block of the array, then reads all of it back.
  const auto round = [&](std::size_t pages) {
    const std::size_t n = pages * rt.page_size() / sizeof(int);
    const auto arr = rt.alloc_global<int>(n);
    std::atomic<std::size_t> wrong{0};
    rt.run([&](DsmNode& self) {
      int* p = self.ptr(arr);
      for (std::size_t i = self.id() * n / kNodes;
           i < (self.id() + 1) * n / kNodes; ++i) {
        p[i] = static_cast<int>(3 * i + 1);
      }
      self.barrier();
      for (std::size_t i = 0; i < n; ++i) {
        if (p[i] != static_cast<int>(3 * i + 1)) ++wrong;
      }
    });
    return wrong.load();
  };
  EXPECT_EQ(round(100), 0u);
  // The round's own data is ~7 MB: both views of four copies of 100 pages
  // (3.2 MB) plus the diff stores.  Region-sized tables would add 18.8.
  if (kResidentBoundsHold) {
    EXPECT_LT(resident_mb() - before, 12.0);
  }

  rt.reset_arena();
  EXPECT_EQ(rt.shared_bytes_used(), 0u);
  EXPECT_EQ(round(10), 0u);
  EXPECT_EQ(rt.node(1).page_state(9), PageState::kReadOnly);
}

// The guards the growing table needs.  A write above the heap has no
// metadata to twin; alloc_global inside run() would resize tables under
// live compute threads.
void write_one_page_above_the_heap() {
  DsmRuntime rt(small_config(2));
  rt.alloc_global<int>(100);
  const GlobalArray<int> stray{rt.shared_bytes_used() + rt.page_size(), 1};
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) *self.ptr(stray) = 1;
  });
}

void alloc_inside_run() {
  DsmRuntime rt(small_config(2));
  rt.run([&](DsmNode& self) {
    if (self.id() == 0) rt.alloc_global<int>(1);
  });
}

TEST(DsmDeathTest, WriteAboveTheHeapAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(write_one_page_above_the_heap(),
               "access outside the shared heap");
}

TEST(DsmDeathTest, AllocInsideRunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(alloc_inside_run(), "alloc_global: run\\(\\) is active");
}

}  // namespace
}  // namespace sdsm::core
