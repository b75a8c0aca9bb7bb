// Tests for the plan layer's DSM-side pieces (sdsm::api::plan): the
// DsmExchange adapter that runs CHAOS collectives over the DSM fabric, the
// backends' traffic parity against the committed baseline counts, and the
// hybrid backend's bit-exact matrix against CHAOS across both transports
// and both reduction-round schedules on moldyn, pagerank and the
// converging frontier kernels bfs and cc.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/api/api.hpp"
#include "src/api/plan/dsm_exchange.hpp"
#include "src/apps/graph/bfs.hpp"
#include "src/apps/graph/cc.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::api::plan {
namespace {

constexpr std::uint32_t kNodes = 4;

// --- DsmExchange: CHAOS collectives over the DSM fabric ----------------------

TEST(DsmExchangeTest, AllToAllRoutesPayloadsLikeAChaosNode) {
  core::DsmConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.region_bytes = 4u << 20;
  core::DsmRuntime rt(cfg);
  std::vector<std::vector<std::vector<std::uint8_t>>> got(kNodes);
  rt.run([&](core::DsmNode& self) {
    DsmExchange ex(self);
    EXPECT_EQ(ex.id(), self.id());
    EXPECT_EQ(ex.num_nodes(), kNodes);
    // Payload p->q = {p, q, p+q}; self slot must come back untouched.
    std::vector<std::vector<std::uint8_t>> out(kNodes);
    for (NodeId q = 0; q < kNodes; ++q) {
      if (q == self.id()) continue;
      out[q] = {static_cast<std::uint8_t>(self.id()),
                static_cast<std::uint8_t>(q),
                static_cast<std::uint8_t>(self.id() + q)};
    }
    got[self.id()] = ex.all_to_all(std::move(out));
    self.barrier();
  });
  for (NodeId q = 0; q < kNodes; ++q) {
    ASSERT_EQ(got[q].size(), kNodes);
    for (NodeId p = 0; p < kNodes; ++p) {
      if (p == q) continue;
      const std::vector<std::uint8_t> want{
          static_cast<std::uint8_t>(p), static_cast<std::uint8_t>(q),
          static_cast<std::uint8_t>(p + q)};
      EXPECT_EQ(got[q][p], want) << "payload " << int(p) << "->" << int(q);
    }
  }
}

TEST(DsmExchangeTest, SparseExchangeSkipsEmptyPairs) {
  core::DsmConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.region_bytes = 4u << 20;
  core::DsmRuntime rt(cfg);
  std::vector<std::vector<std::vector<std::uint8_t>>> got(kNodes);
  rt.run([&](core::DsmNode& self) {
    DsmExchange ex(self);
    // Ring: p sends only to (p+1) % N; everyone receives only from the
    // left neighbour.
    std::vector<std::vector<std::uint8_t>> out(kNodes);
    const NodeId right = (self.id() + 1) % kNodes;
    out[right] = {static_cast<std::uint8_t>(0xA0 + self.id())};
    std::vector<bool> recv_from(kNodes, false);
    recv_from[(self.id() + kNodes - 1) % kNodes] = true;
    got[self.id()] = ex.sparse_exchange(std::move(out), recv_from);
    self.barrier();
  });
  for (NodeId q = 0; q < kNodes; ++q) {
    const NodeId left = (q + kNodes - 1) % kNodes;
    ASSERT_EQ(got[q].size(), kNodes);
    for (NodeId p = 0; p < kNodes; ++p) {
      if (p == left) {
        const std::vector<std::uint8_t> want{
            static_cast<std::uint8_t>(0xA0 + left)};
        EXPECT_EQ(got[q][p], want);
      } else {
        EXPECT_TRUE(got[q][p].empty());
      }
    }
  }
}

// --- Traffic parity: the refactor's exact gate -------------------------------

// The shared StepDriver must reproduce the monolith backends' traffic
// EXACTLY — the counts below are the committed-baseline values for these
// workload shapes (they are deterministic functions of the access pattern
// and the protocol, not of timing), so any drift in the rebuild cadence,
// barrier placement, or Validate aggregation shows up as a hard failure
// here before it shows up in the benches.  Rows that set a schedule or
// prefetch pin the page protocol's other paths at these shapes: the
// tournament schedule, cross-step prefetch and, on bfs, the convergence
// flag.  Prefetch moves waits, never messages.
struct ExpectedTraffic {
  Backend backend;
  std::uint64_t messages;
  RoundSchedule schedule = RoundSchedule::kSerial;
  bool prefetch = false;  ///< cross-step prefetch
};

std::string label(const ExpectedTraffic& e) {
  return std::string(backend_name(e.backend)) + " " +
         round_schedule_name(e.schedule) + (e.prefetch ? " prefetch" : "");
}

/// Checks row `e`'s result `r` against the pinned count and the CHAOS
/// checksum, and the contract between the two Tmk backends: base runs
/// optimized's code minus its Validate declarations, so it neither
/// validates nor posts a prefetch.
void expect_row(const ExpectedTraffic& e, const api::KernelResult& r,
                double chaos_checksum) {
  EXPECT_EQ(r.messages, e.messages) << label(e);
  EXPECT_EQ(r.checksum, chaos_checksum) << label(e);
  const DsmStats::Snapshot& t = r.tmk;
  if (e.backend == Backend::kTmkBase) {
    EXPECT_EQ(t.validate_calls, 0u) << label(e);
    EXPECT_EQ(t.cross_prefetch_posts, 0u) << label(e);
  } else if (e.backend == Backend::kTmkOptimized) {
    EXPECT_GT(t.validate_calls, 0u) << label(e);
    EXPECT_EQ(t.cross_prefetch_posts > 0, e.prefetch) << label(e);
    EXPECT_EQ(t.cross_prefetch_posts,
              t.cross_prefetch_consumes + t.cross_prefetch_drains)
        << label(e);
  }
}

api::BackendOptions with_path(api::BackendOptions opts,
                              const ExpectedTraffic& e) {
  opts.round_schedule = e.schedule;
  opts.cross_step_prefetch = e.prefetch;
  return opts;
}

TEST(TrafficParity, SpmvMatchesCommittedCounts) {
  apps::spmv::Params p;
  p.num_rows = 2048;
  p.num_steps = 6;
  p.edges_per_vertex = 4;
  p.nprocs = kNodes;
  api::BackendOptions opts = apps::spmv::default_options();
  const double chaos_checksum =
      apps::spmv::run(Backend::kChaos, p, opts).checksum;
  const ExpectedTraffic expected[] = {
      {Backend::kChaos, 108u},
      {Backend::kTmkBase, 360u},
      {Backend::kTmkOptimized, 360u},
      {Backend::kHybrid, 108u},
  };
  for (const ExpectedTraffic& e : expected) {
    expect_row(e, apps::spmv::run(e.backend, p, opts), chaos_checksum);
  }
}

TEST(TrafficParity, MoldynMatchesCommittedCounts) {
  apps::moldyn::Params p;
  p.num_molecules = 512;
  p.num_steps = 8;
  p.update_interval = 4;
  p.nprocs = kNodes;
  const apps::moldyn::System sys = apps::moldyn::make_system(p);
  api::BackendOptions opts = apps::moldyn::default_options();
  const double chaos_checksum =
      apps::moldyn::run(Backend::kChaos, p, sys, opts).checksum;
  const ExpectedTraffic expected[] = {
      {Backend::kChaos, 208u},
      {Backend::kTmkBase, 670u},
      {Backend::kTmkOptimized, 562u},
      {Backend::kHybrid, 232u},
      {Backend::kTmkBase, 670u, RoundSchedule::kSerial, true},
      {Backend::kTmkOptimized, 562u, RoundSchedule::kSerial, true},
      {Backend::kTmkBase, 570u, RoundSchedule::kTournament, true},
      {Backend::kTmkOptimized, 478u, RoundSchedule::kTournament, true},
  };
  for (const ExpectedTraffic& e : expected) {
    expect_row(e, apps::moldyn::run(e.backend, p, sys, with_path(opts, e)),
               chaos_checksum);
  }
}

TEST(TrafficParity, BfsMatchesPinnedCounts) {
  apps::graph::Params p;
  p.num_vertices = 1024;
  p.nprocs = kNodes;
  const api::BackendOptions opts = apps::bfs::default_options();
  const double chaos_checksum =
      apps::bfs::run(Backend::kChaos, p, opts).checksum;
  const ExpectedTraffic expected[] = {
      {Backend::kTmkBase, 606u, RoundSchedule::kSerial, true},
      {Backend::kTmkOptimized, 628u, RoundSchedule::kSerial, true},
      {Backend::kTmkBase, 482u, RoundSchedule::kTournament, true},
      {Backend::kTmkOptimized, 466u, RoundSchedule::kTournament, true},
      // The own-block rebuild read is local here: no allgather on CHAOS
      // and no slice Validate on the hybrid.
      {Backend::kChaos, 346u},
      {Backend::kHybrid, 346u},
  };
  for (const ExpectedTraffic& e : expected) {
    expect_row(e, apps::bfs::run(e.backend, p, with_path(opts, e)),
               chaos_checksum);
  }
}

// --- The hybrid checksum matrix ---------------------------------------------

// Bit-exact equality with the all-message CHAOS baseline across both
// transports and both reduction-round schedules: the mixed assignment
// must never change a single bit of the numerics, whatever the fabric or
// the reduction bracket.
class HybridMatrix
    : public ::testing::TestWithParam<
          std::tuple<net::TransportKind, RoundSchedule>> {};

TEST_P(HybridMatrix, MoldynBitExactAgainstChaos) {
  const auto [transport, schedule] = GetParam();
  apps::moldyn::Params p;
  p.num_molecules = 512;
  p.num_steps = 8;
  p.update_interval = 4;
  p.nprocs = kNodes;
  const apps::moldyn::System sys = apps::moldyn::make_system(p);
  api::BackendOptions opts = apps::moldyn::default_options();
  opts.transport = transport;
  opts.round_schedule = schedule;
  const api::KernelResult chaos =
      apps::moldyn::run(Backend::kChaos, p, sys, opts);
  const api::KernelResult hybrid =
      apps::moldyn::run(Backend::kHybrid, p, sys, opts);
  EXPECT_EQ(hybrid.checksum, chaos.checksum);  // bitwise, not approximate
  EXPECT_EQ(hybrid.steps_run, chaos.steps_run);
  EXPECT_EQ(hybrid.refs, chaos.refs);
}

TEST_P(HybridMatrix, PagerankBitExactAgainstChaos) {
  const auto [transport, schedule] = GetParam();
  apps::pagerank::Params p;
  p.num_vertices = 2048;
  p.num_steps = 6;
  p.edges_per_vertex = 4;
  p.nprocs = kNodes;
  api::BackendOptions opts = apps::pagerank::default_options();
  opts.transport = transport;
  opts.round_schedule = schedule;
  const api::KernelResult chaos = apps::pagerank::run(Backend::kChaos, p, opts);
  const api::KernelResult hybrid =
      apps::pagerank::run(Backend::kHybrid, p, opts);
  EXPECT_EQ(hybrid.checksum, chaos.checksum);
  EXPECT_EQ(hybrid.steps_run, chaos.steps_run);
}

// Both drivers run one InspectorGather strategy; these cases pin the parts
// the hybrid reaches only through its hooks or rarely exercises: the
// convergence allgather and a rebuild at every step.
void expect_same_run(const api::KernelResult& hybrid,
                     const api::KernelResult& chaos) {
  EXPECT_EQ(hybrid.checksum, chaos.checksum);  // bitwise
  EXPECT_EQ(hybrid.steps_run, chaos.steps_run);
  EXPECT_EQ(hybrid.rebuilds, chaos.rebuilds);
}

TEST_P(HybridMatrix, BfsConvergesLikeChaos) {
  const auto [transport, schedule] = GetParam();
  apps::graph::Params p;
  p.num_vertices = 1024;
  p.nprocs = kNodes;
  api::BackendOptions opts = apps::bfs::default_options();
  opts.transport = transport;
  opts.round_schedule = schedule;
  const api::KernelResult chaos = apps::bfs::run(Backend::kChaos, p, opts);
  expect_same_run(apps::bfs::run(Backend::kHybrid, p, opts), chaos);
  EXPECT_LT(chaos.steps_run, p.num_steps);  // converged early
  EXPECT_EQ(chaos.rebuilds, chaos.steps_run);  // frontier rebuilt per step
}

TEST_P(HybridMatrix, CcConvergesLikeChaos) {
  const auto [transport, schedule] = GetParam();
  apps::graph::Params p;
  p.num_vertices = 1024;
  p.isolated = 64;  // a second component
  p.nprocs = kNodes;
  api::BackendOptions opts = apps::cc::default_options();
  opts.transport = transport;
  opts.round_schedule = schedule;
  const api::KernelResult chaos = apps::cc::run(Backend::kChaos, p, opts);
  expect_same_run(apps::cc::run(Backend::kHybrid, p, opts), chaos);
  EXPECT_LT(chaos.steps_run, p.num_steps);
}

std::string hybrid_matrix_name(
    const ::testing::TestParamInfo<
        std::tuple<net::TransportKind, RoundSchedule>>& info) {
  const net::TransportKind t = std::get<0>(info.param);
  const RoundSchedule s = std::get<1>(info.param);
  return std::string(t == net::TransportKind::kSocket ? "socket" : "inproc") +
         "_" + round_schedule_name(s);
}

INSTANTIATE_TEST_SUITE_P(
    BothTransportsBothSchedules, HybridMatrix,
    ::testing::Combine(::testing::Values(net::TransportKind::kInProc,
                                         net::TransportKind::kSocket),
                       ::testing::Values(RoundSchedule::kSerial,
                                         RoundSchedule::kTournament)),
    hybrid_matrix_name);

}  // namespace
}  // namespace sdsm::api::plan
