// The frontier-driven graph suite: BFS and connected components, whose
// item lists are data-dependent and rebuilt at EVERY step.  The matrix
// here is the acceptance contract: backend-identical distances/labels on
// all three backends x both transports x both round schedules, exact
// cross-transport message/byte parity per (backend, schedule), identical
// early-exit step counts from the DSM-published convergence flag, and the
// empty-WorkItems contract under fire — a permanently-empty node (the
// owner of an unreachable component) and fixed-step runs whose trailing
// steps have an empty frontier on EVERY node.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/graph/bfs.hpp"
#include "src/apps/graph/cc.hpp"

namespace sdsm::api {
namespace {

using apps::checksum_close;
using apps::Csr;

apps::graph::Params small_params() {
  apps::graph::Params p;
  p.num_vertices = 1024;
  p.chords_per_vertex = 2;
  // 1024 / 4 nodes: node 3 owns exactly the isolated tail, so its BFS
  // frontier is empty at every step of the run.
  p.isolated = 256;
  p.num_steps = 32;
  p.nprocs = 4;
  return p;
}

TEST(GraphBuild, DeterministicWithTwoComponents) {
  const auto p = small_params();
  const Csr a = apps::graph::build_graph(p);
  const Csr b = apps::graph::build_graph(p);
  ASSERT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.values, b.values);
  ASSERT_EQ(a.rows(), static_cast<std::size_t>(p.num_vertices));
  // No edge crosses the core/tail boundary in either direction.
  const std::int64_t core = p.num_vertices - p.isolated;
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    for (const std::int32_t nb : a.row(static_cast<std::size_t>(v))) {
      EXPECT_EQ(v < core, nb < core) << v << " -> " << nb;
    }
  }
  // BFS leaves exactly the tail unreached; CC finds exactly two labels.
  const auto dist = apps::bfs::seq_distances(p);
  std::int64_t unreached_count = 0;
  for (const double d : dist) {
    if (d == apps::graph::unreached(p)) ++unreached_count;
  }
  EXPECT_EQ(unreached_count, p.isolated);
  const auto labels = apps::cc::seq_labels(p);
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    EXPECT_EQ(labels[static_cast<std::size_t>(v)],
              v < core ? 0.0 : static_cast<double>(core));
  }
}

// The builder's CSR, byte for byte, over tiny graphs (where ring, chord
// and tail edges collide most), isolated tails of 0, 2 and 7 vertices,
// and several seeds.  The digest was recorded from the build that sorted
// and deduplicated the whole edge list, so a faster build must reproduce
// it exactly (frontiers, traffic and checksums depend on row order).
TEST(GraphBuild, PinnedOutputs) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  const auto add = [&h](const auto& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  int graphs = 0;
  for (const std::uint64_t seed : {1ull, 11ull, 42ull}) {
    for (const std::int64_t n : {3, 5, 100, 4096}) {
      for (const int chords : {0, 1, 2, 4}) {
        for (const std::int64_t isolated : {0, 2, 7}) {
          if (isolated > n - 2) continue;
          apps::graph::Params p;
          p.num_vertices = n;
          p.chords_per_vertex = chords;
          p.isolated = isolated;
          p.seed = seed;
          const Csr adj = apps::graph::build_graph(p);
          ASSERT_EQ(adj.rows(), static_cast<std::size_t>(n));
          ASSERT_EQ(adj.values.size(),
                    static_cast<std::size_t>(adj.offsets.back()));
          for (std::int64_t v = 0; v < n; ++v) {
            const auto row = adj.row(static_cast<std::size_t>(v));
            for (std::size_t i = 0; i < row.size(); ++i) {
              ASSERT_NE(row[i], v) << "self loop " << v;
              if (i > 0) {
                ASSERT_LT(row[i - 1], row[i]) << "row " << v;
              }
              const auto back = adj.row(static_cast<std::size_t>(row[i]));
              ASSERT_TRUE(std::binary_search(back.begin(), back.end(),
                                             static_cast<std::int32_t>(v)))
                  << v << " -> " << row[i] << " has no reverse edge";
            }
          }
          for (const std::int64_t o : adj.offsets) add(o);
          for (const std::int32_t v : adj.values) add(v);
          ++graphs;
        }
      }
    }
  }
  EXPECT_EQ(graphs, 108);
  EXPECT_EQ(h, 0x09fa6fe0e23cc003ull);
}

// Tmk base runs Tmk optimized's code minus its Validate declarations: the
// convergence flag, the frontier rebuild and the reduction are declared on
// the optimized backend only.
void expect_declarations(Backend b, const KernelResult& r) {
  if (b == Backend::kTmkBase) {
    EXPECT_EQ(r.tmk.validate_calls, 0u) << backend_name(b);
    EXPECT_EQ(r.tmk.cross_prefetch_posts, 0u) << backend_name(b);
  } else if (b == Backend::kTmkOptimized) {
    EXPECT_GT(r.tmk.validate_calls, 0u) << backend_name(b);
  }
}

// The full acceptance matrix: transports x schedules, swept over all three
// backends per workload.
class GraphMatrix
    : public ::testing::TestWithParam<
          std::tuple<net::TransportKind, RoundSchedule>> {
 public:
  static BackendOptions options(BackendOptions base) {
    base.transport = std::get<0>(GetParam());
    base.round_schedule = std::get<1>(GetParam());
    base.region_bytes = 16u << 20;
    return base;
  }
};

INSTANTIATE_TEST_SUITE_P(
    TransportsXSchedules, GraphMatrix,
    ::testing::Combine(::testing::Values(net::TransportKind::kInProc,
                                         net::TransportKind::kSocket),
                       ::testing::Values(RoundSchedule::kSerial,
                                         RoundSchedule::kTournament)),
    [](const auto& info) {
      return std::string(net::transport_name(std::get<0>(info.param))) + "_" +
             round_schedule_name(std::get<1>(info.param));
    });

TEST_P(GraphMatrix, BfsBackendIdenticalWithEarlyExit) {
  const auto p = small_params();
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::bfs::seq_distances(p, &seq_steps));
  ASSERT_GT(seq_steps, 2);
  ASSERT_LT(seq_steps, p.num_steps);  // the convergence flag must fire early
  const auto opts = options(apps::bfs::default_options());
  for (const Backend b : kAllBackends) {
    const auto r = apps::bfs::run(b, p, opts);
    // Distances are small integers in doubles: sums are exact, so the
    // checksum must match bit for bit, not merely closely.
    EXPECT_EQ(seq, r.checksum) << backend_name(b);
    EXPECT_EQ(r.steps_run, seq_steps) << backend_name(b);
    // Frontier workloads rebuild at every executed step, warmup included.
    EXPECT_EQ(r.rebuilds, seq_steps + p.warmup_steps) << backend_name(b);
    EXPECT_GT(r.messages, 0u) << backend_name(b);
    expect_declarations(b, r);
  }
}

TEST_P(GraphMatrix, CcBackendIdenticalWithEarlyExit) {
  const auto p = small_params();
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::cc::seq_labels(p, &seq_steps));
  ASSERT_GT(seq_steps, 2);
  ASSERT_LT(seq_steps, p.num_steps);
  const auto opts = options(apps::cc::default_options());
  for (const Backend b : kAllBackends) {
    const auto r = apps::cc::run(b, p, opts);
    EXPECT_EQ(seq, r.checksum) << backend_name(b);
    EXPECT_EQ(r.steps_run, seq_steps) << backend_name(b);
    EXPECT_EQ(r.rebuilds, seq_steps + p.warmup_steps) << backend_name(b);
    expect_declarations(b, r);
  }
}

// Exact message/byte parity across transports for every (backend,
// schedule) pair: the fabric changes what a message costs, never what the
// frontier traffic carries — convergence-flag exchanges and per-step
// rebuild allgathers included.
TEST(GraphTraffic, CrossTransportParityPerBackendAndSchedule) {
  const auto p = small_params();
  for (const bool bfs_workload : {true, false}) {
    for (const RoundSchedule s : kAllSchedules) {
      for (const Backend b : kAllBackends) {
        KernelResult by_transport[2];
        int t = 0;
        for (const net::TransportKind transport :
             {net::TransportKind::kInProc, net::TransportKind::kSocket}) {
          BackendOptions opts = apps::bfs::default_options();
          opts.transport = transport;
          opts.round_schedule = s;
          opts.region_bytes = 16u << 20;
          by_transport[t++] = bfs_workload ? apps::bfs::run(b, p, opts)
                                           : apps::cc::run(b, p, opts);
        }
        const char* label = bfs_workload ? "bfs" : "cc";
        EXPECT_EQ(by_transport[0].messages, by_transport[1].messages)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
        EXPECT_EQ(by_transport[0].megabytes, by_transport[1].megabytes)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
        EXPECT_EQ(by_transport[0].checksum, by_transport[1].checksum)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
        EXPECT_EQ(by_transport[0].steps_run, by_transport[1].steps_run)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
      }
    }
  }
}

// Regression (zero-item node under the tournament schedule): node 3 owns
// exactly the unreachable tail, so its frontier — and its touch-matrix row
// — is empty at EVERY step.  The bracket must pair the remaining
// contributors and seed every accumulator with the min-identity; the
// pre-fix backend assumed every node contributes somewhere and seeded
// accumulators with zero, which collapses every distance to 0 and trips a
// bogus instant convergence.
TEST(GraphEmptyFrontier, PermanentlyEmptyNodeUnderTournament) {
  const auto p = small_params();
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::bfs::seq_distances(p, &seq_steps));
  for (const Backend b : {Backend::kTmkBase, Backend::kTmkOptimized}) {
    BackendOptions opts = apps::bfs::default_options();
    opts.round_schedule = RoundSchedule::kTournament;
    opts.region_bytes = 16u << 20;
    const auto r = apps::bfs::run(b, p, opts);
    EXPECT_EQ(seq, r.checksum) << backend_name(b);
    EXPECT_EQ(r.steps_run, seq_steps) << backend_name(b);
    // The empty node still pays every fused-round barrier: the round count
    // is derived from the shared touch matrix, not from local work.
    EXPECT_GT(r.barriers_per_step, 1.0) << backend_name(b);
  }
}

// Fixed-step runs (convergence off) keep executing after the reachable
// component is exhausted: the trailing steps have an empty frontier on
// EVERY node — an all-zero touch matrix, zero-item WorkItems everywhere,
// empty CHAOS exchanges — and must neither wedge nor change the answer.
TEST(GraphEmptyFrontier, AllNodesEmptyAfterExhaustionFixedSteps) {
  auto p = small_params();
  p.use_convergence = false;
  p.num_steps = 12;  // > diameter of the reachable component
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::bfs::seq_distances(p, &seq_steps));
  ASSERT_EQ(seq_steps, p.num_steps);  // no early exit
  for (const RoundSchedule s : kAllSchedules) {
    for (const Backend b : kAllBackends) {
      BackendOptions opts = apps::bfs::default_options();
      opts.round_schedule = s;
      opts.region_bytes = 16u << 20;
      const auto r = apps::bfs::run(b, p, opts);
      EXPECT_EQ(seq, r.checksum)
          << backend_name(b) << " " << round_schedule_name(s);
      EXPECT_EQ(r.steps_run, p.num_steps)
          << backend_name(b) << " " << round_schedule_name(s);
      EXPECT_EQ(r.rebuilds, p.num_steps)
          << backend_name(b) << " " << round_schedule_name(s);
    }
  }
}

}  // namespace
}  // namespace sdsm::api
