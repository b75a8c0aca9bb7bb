// Micro-benchmarks for the DSM synchronization primitives and fault paths:
// barrier cost by node count, lock round-trips, page-fault + fetch cost.
#include <benchmark/benchmark.h>

#include "src/core/descriptor.hpp"
#include "src/core/dsm.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::core;

DsmConfig config(std::uint32_t nodes) {
  DsmConfig cfg;
  cfg.num_nodes = nodes;
  cfg.region_bytes = 1u << 20;
  return cfg;
}

void BM_Barrier(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  DsmRuntime rt(config(nodes));
  for (auto _ : state) {
    rt.run([](DsmNode& self) { self.barrier(); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * nodes);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8);

void BM_BarrierStorm(benchmark::State& state) {
  // 16 consecutive barriers per run() amortizes the thread spawn cost.
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  DsmRuntime rt(config(nodes));
  for (auto _ : state) {
    rt.run([](DsmNode& self) {
      for (int i = 0; i < 16; ++i) self.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_BarrierStorm)->Arg(4)->Arg(8);

void BM_UncontendedLock(benchmark::State& state) {
  DsmRuntime rt(config(2));
  for (auto _ : state) {
    rt.run([](DsmNode& self) {
      if (self.id() == 1) {  // lock homed on node 0: remote round trip
        for (int i = 0; i < 16; ++i) {
          self.lock_acquire(0);
          self.lock_release(0);
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_UncontendedLock);

void BM_ContendedLock(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  DsmRuntime rt(config(nodes));
  auto counter = rt.alloc_global<std::int64_t>(1);
  for (auto _ : state) {
    rt.run([&](DsmNode& self) {
      for (int i = 0; i < 4; ++i) {
        self.lock_acquire(1);
        *self.ptr(counter) += 1;
        self.lock_release(1);
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          nodes * 4);
}
BENCHMARK(BM_ContendedLock)->Arg(2)->Arg(4)->Arg(8);

void BM_PageFaultFetch(benchmark::State& state) {
  // Demand fetch of 16 modified pages: fault -> diff request -> apply.
  DsmRuntime rt(config(2));
  const std::size_t n = 16 * 512;
  auto arr = rt.alloc_global<double>(n);
  for (auto _ : state) {
    rt.run([&](DsmNode& self) {
      double* p = self.ptr(arr);
      if (self.id() == 0) {
        for (std::size_t i = 0; i < n; i += 64) p[i] += 1.0;
      }
      self.barrier();
      if (self.id() == 1) {
        double sum = 0;
        for (std::size_t i = 0; i < n; i += 512) sum += p[i];
        benchmark::DoNotOptimize(sum);
      }
      self.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_PageFaultFetch);

void BM_ValidatePrefetch(benchmark::State& state) {
  // The same 16 pages through the aggregated Validate path.
  DsmRuntime rt(config(2));
  const std::size_t n = 16 * 512;
  auto arr = rt.alloc_global<double>(n);
  for (auto _ : state) {
    rt.run([&](DsmNode& self) {
      double* p = self.ptr(arr);
      if (self.id() == 0) {
        for (std::size_t i = 0; i < n; i += 64) p[i] += 1.0;
      }
      self.barrier();
      if (self.id() == 1) {
        self.validate({DescriptorBuilder::array(arr)
                           .elements(0, static_cast<std::int64_t>(n) - 1)
                           .read()});
        double sum = 0;
        for (std::size_t i = 0; i < n; i += 512) sum += p[i];
        benchmark::DoNotOptimize(sum);
      }
      self.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_ValidatePrefetch);

}  // namespace

BENCHMARK_MAIN();
