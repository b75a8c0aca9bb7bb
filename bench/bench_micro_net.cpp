// Micro-benchmarks for the message fabric: round-trip latency, payload
// throughput, and the benefit of batching many requests into one message.
#include <benchmark/benchmark.h>

#include <thread>

#include "src/net/network.hpp"

namespace {

using namespace sdsm::net;

void BM_PingPong(benchmark::State& state) {
  InProcTransport net(2);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    for (;;) {
      Message req = net.recv(Port::kService, 1);
      if (req.type == kControlStop) return;
      Message rep;
      rep.type = 2;
      rep.src = 1;
      rep.dst = 0;
      rep.request_id = req.request_id;
      net.send(Port::kReply, std::move(rep));
    }
  });
  for (auto _ : state) {
    Message req;
    req.type = 1;
    req.src = 0;
    req.dst = 1;
    req.request_id = net.next_request_id(0);
    const auto rid = req.request_id;
    net.send(Port::kService, std::move(req));
    benchmark::DoNotOptimize(net.recv_reply(0, rid));
  }
  stop = true;
  net.stop_all_services();
  server.join();
}
BENCHMARK(BM_PingPong);

void BM_PayloadThroughput(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  InProcTransport net(2);
  std::thread server([&] {
    for (;;) {
      Message req = net.recv(Port::kService, 1);
      if (req.type == kControlStop) return;
      Message rep;
      rep.type = 2;
      rep.src = 1;
      rep.dst = 0;
      rep.request_id = req.request_id;
      rep.payload = std::move(req.payload);
      net.send(Port::kReply, std::move(rep));
    }
  });
  std::vector<std::uint8_t> payload(bytes, 0xcd);
  for (auto _ : state) {
    Message req;
    req.type = 1;
    req.src = 0;
    req.dst = 1;
    req.request_id = net.next_request_id(0);
    req.payload = payload;
    const auto rid = req.request_id;
    net.send(Port::kService, std::move(req));
    benchmark::DoNotOptimize(net.recv_reply(0, rid));
  }
  net.stop_all_services();
  server.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_PayloadThroughput)->Arg(128)->Arg(4096)->Arg(65536);

void BM_BatchedVsSingleRequests(benchmark::State& state) {
  // The aggregation argument in miniature: K logical requests as K messages
  // (range(0)=0) or as one batched message (range(0)=1).
  const bool batched = state.range(0) == 1;
  constexpr int kRequests = 32;
  InProcTransport net(2);
  std::thread server([&] {
    for (;;) {
      Message req = net.recv(Port::kService, 1);
      if (req.type == kControlStop) return;
      Message rep;
      rep.type = 2;
      rep.src = 1;
      rep.dst = 0;
      rep.request_id = req.request_id;
      rep.payload.assign(req.payload.size() * 16, 0x11);  // 16B answer per 1B ask
      net.send(Port::kReply, std::move(rep));
    }
  });
  for (auto _ : state) {
    if (batched) {
      Message req;
      req.type = 1;
      req.src = 0;
      req.dst = 1;
      req.request_id = net.next_request_id(0);
      req.payload.assign(kRequests, 1);
      const auto rid = req.request_id;
      net.send(Port::kService, std::move(req));
      benchmark::DoNotOptimize(net.recv_reply(0, rid));
    } else {
      for (int k = 0; k < kRequests; ++k) {
        Message req;
        req.type = 1;
        req.src = 0;
        req.dst = 1;
        req.request_id = net.next_request_id(0);
        req.payload.assign(1, 1);
        const auto rid = req.request_id;
        net.send(Port::kService, std::move(req));
        benchmark::DoNotOptimize(net.recv_reply(0, rid));
      }
    }
  }
  net.stop_all_services();
  server.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRequests);
}
BENCHMARK(BM_BatchedVsSingleRequests)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
