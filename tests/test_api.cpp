// Tests for the backend-agnostic irregular-kernel API: backend parsing,
// the fluent descriptor builder, and — the core contract — cross-backend
// checksum parity for kernels written once (moldyn and spmv).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/api/api.hpp"
#include "src/api/reuse.hpp"
#include "src/api/tmk_backend.hpp"
#include "src/apps/graph/bfs.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/spmv/spmv.hpp"

namespace sdsm::api {
namespace {

using apps::checksum_close;

TEST(Backend, ParseAndNameRoundTrip) {
  for (const Backend b : kAllBackends) {
    const auto parsed = parse_backend(backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(parse_backend("chaos"), Backend::kChaos);
  EXPECT_EQ(parse_backend("tmk-base"), Backend::kTmkBase);
  EXPECT_EQ(parse_backend("TMK_OPTIMIZED"), Backend::kTmkOptimized);
  EXPECT_FALSE(parse_backend("mpi").has_value());
}

TEST(Backend, RoundScheduleParseAndNameRoundTrip) {
  for (const RoundSchedule s : kAllSchedules) {
    const auto parsed = parse_round_schedule(round_schedule_name(s));
    ASSERT_TRUE(parsed.has_value()) << round_schedule_name(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(parse_round_schedule("Tournament"), RoundSchedule::kTournament);
  EXPECT_EQ(parse_round_schedule("SERIAL"), RoundSchedule::kSerial);
  EXPECT_FALSE(parse_round_schedule("bracket").has_value());
}

// A TmkBackend runs the page protocol, so a CHAOS kind is a precondition
// failure rather than a Tmk base run labelled "CHAOS".
TEST(TmkBackendDeathTest, RejectsTheChaosKind) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TmkBackend(4, Backend::kChaos, BackendOptions{}),
               "TmkBackend: not a DSM backend kind");
}

TEST(Backend, OwnerOfContiguousPartition) {
  const std::vector<part::Range> ranges{{0, 3}, {3, 3}, {3, 10}, {10, 12}};
  EXPECT_EQ(owner_of(ranges, 0), 0u);
  EXPECT_EQ(owner_of(ranges, 2), 0u);
  EXPECT_EQ(owner_of(ranges, 3), 2u);  // node 1 owns an empty range
  EXPECT_EQ(owner_of(ranges, 9), 2u);
  EXPECT_EQ(owner_of(ranges, 11), 3u);
}

TEST(DescriptorBuilder, BuildsDirectDescriptor) {
  const rsd::ArrayLayout layout{{64}, true};
  const auto built = core::DescriptorBuilder::array(0x1000, 8, layout)
                         .elements(4, 31)
                         .schedule(7)
                         .read_write();
  EXPECT_EQ(built.type, core::DescType::kDirect);
  EXPECT_EQ(built.access, core::Access::kReadWrite);
  EXPECT_EQ(built.schedule, 7u);
  EXPECT_EQ(built.data_base, 0x1000u);
  EXPECT_EQ(built.data_elem_size, 8u);
  EXPECT_EQ(built.section, rsd::RegularSection::dense1d(4, 31));
}

TEST(DescriptorBuilder, BuildsIndirectDescriptor) {
  const rsd::ArrayLayout ind_layout{{2, 128}, true};
  const auto section = rsd::RegularSection({{0, 1, 1}, {16, 47, 1}});
  const auto built = core::DescriptorBuilder::array(0x2000, 24,
                                                    rsd::ArrayLayout{})
                         .via(0x8000, ind_layout, section)
                         .schedule(3)
                         .read();
  EXPECT_EQ(built.type, core::DescType::kIndirect);
  EXPECT_EQ(built.ind_base, 0x8000u);
  EXPECT_EQ(built.section, section);
  EXPECT_EQ(built.access, core::Access::kRead);
  EXPECT_EQ(built.schedule, 3u);
}

TEST(SpmvGraph, DeterministicAndPowerLaw) {
  apps::spmv::Params p;
  p.num_rows = 2048;
  p.edges_per_vertex = 4;
  const auto a = apps::spmv::build_graph(p);
  const auto b = apps::spmv::build_graph(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].w, b[i].w);
  }
  for (const auto& e : a) {
    EXPECT_LT(e.a, e.b);
    EXPECT_GE(e.a, 0);
    EXPECT_LT(e.b, p.num_rows);
  }
  // Preferential attachment produces hubs: the max degree must dwarf the
  // mean (a uniform random graph would stay within a small factor).
  const double avg = 2.0 * static_cast<double>(a.size()) /
                     static_cast<double>(p.num_rows);
  std::vector<int> deg(static_cast<std::size_t>(p.num_rows), 0);
  for (const auto& e : a) {
    ++deg[static_cast<std::size_t>(e.a)];
    ++deg[static_cast<std::size_t>(e.b)];
  }
  const int max_deg = *std::max_element(deg.begin(), deg.end());
  EXPECT_GT(static_cast<double>(max_deg), 5.0 * avg);
}

/// FNV-1a over the bytes of each value added.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <class T>
  void add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  }
};

// Every CSR row strictly ascending, no self loop, and u in row v iff v in
// row u.
void expect_sorted_symmetric(const apps::Csr& adj) {
  for (std::size_t v = 0; v < adj.rows(); ++v) {
    const auto row = adj.row(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_NE(row[i], static_cast<std::int32_t>(v)) << "self loop " << v;
      if (i > 0) {
        ASSERT_LT(row[i - 1], row[i]) << "row " << v;
      }
      const auto back = adj.row(static_cast<std::size_t>(row[i]));
      ASSERT_TRUE(std::binary_search(back.begin(), back.end(),
                                     static_cast<std::int32_t>(v)))
          << v << " -> " << row[i] << " has no reverse edge";
    }
  }
}

// The builders' outputs, byte for byte: edge order and weight bits for
// spmv, the whole CSR for pagerank.  The digests were recorded from the
// comparison-sort builders, so a faster build must reproduce them exactly
// (traffic and checksums on every backend depend on that order).
TEST(SpmvGraph, PinnedOutputs) {
  Digest edges_digest, adj_digest;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (const std::int64_t n : {3, 5, 100, 4096}) {
      for (const int m : {1, 2, 4, 8}) {
        apps::spmv::Params p;
        p.num_rows = n;
        p.edges_per_vertex = m;
        p.seed = seed;
        const auto edges = apps::spmv::build_graph(p);
        edges_digest.add(edges.size());
        for (std::size_t i = 0; i < edges.size(); ++i) {
          const auto& e = edges[i];
          ASSERT_LT(e.a, e.b);
          ASSERT_GE(e.a, 0);
          ASSERT_LT(e.b, n);
          if (i > 0) {
            const auto& d = edges[i - 1];
            ASSERT_TRUE(d.a < e.a || (d.a == e.a && d.b < e.b))
                << "edge " << i << " out of (a, b) order";
          }
          edges_digest.add(e.a);
          edges_digest.add(e.b);
          edges_digest.add(e.w);
        }

        apps::pagerank::Params q;
        q.num_vertices = n;
        q.edges_per_vertex = m;
        q.seed = seed;
        const auto adj = apps::pagerank::build_adjacency(q);
        ASSERT_EQ(adj.rows(), static_cast<std::size_t>(n));
        ASSERT_EQ(adj.values.size(), 2 * edges.size());
        expect_sorted_symmetric(adj);
        for (const std::int64_t o : adj.offsets) adj_digest.add(o);
        for (const std::int32_t v : adj.values) adj_digest.add(v);
      }
    }
  }
  EXPECT_EQ(edges_digest.h, 0x66864d27409f1423ull);
  EXPECT_EQ(adj_digest.h, 0x60b78f79c855dc0aull);
}

TEST(SpmvSeq, DeterministicAndStable) {
  apps::spmv::Params p;
  p.num_rows = 1024;
  p.nprocs = 2;
  const auto a = apps::spmv::run_seq(p);
  const auto b = apps::spmv::run_seq(p);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_NE(a.checksum, 0.0);
  // Diffusion must not diverge at the default step.
  const auto edges = apps::spmv::build_graph(p);
  EXPECT_LT(p.dt * apps::spmv::max_weighted_degree(p, edges), 1.0);
}

// The cross-backend parity suite runs under BOTH fabrics: identical
// checksums and identical message counts whether the traffic rides the
// in-process channels or real TCP sockets (the transports differ only in
// what a message costs, never in what it carries).
class CrossBackend : public ::testing::TestWithParam<net::TransportKind> {};

INSTANTIATE_TEST_SUITE_P(BothTransports, CrossBackend,
                         ::testing::Values(net::TransportKind::kInProc,
                                           net::TransportKind::kSocket),
                         [](const auto& info) {
                           return std::string(net::transport_name(info.param));
                         });

TEST_P(CrossBackend, SpmvParityOnAllBackends) {
  apps::spmv::Params p;
  p.num_rows = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 6;
  p.nprocs = 4;
  const auto seq = apps::spmv::run_seq(p);
  api::BackendOptions opts = apps::spmv::default_options();
  opts.transport = GetParam();
  for (const Backend b : kAllBackends) {
    const auto r = apps::spmv::run(b, p, opts);
    EXPECT_TRUE(checksum_close(seq.checksum, r.checksum))
        << backend_name(b) << ": " << seq.checksum << " vs " << r.checksum;
    EXPECT_GT(r.messages, 0u) << backend_name(b);
    EXPECT_EQ(r.rebuilds, 1) << backend_name(b);
  }
}

TEST_P(CrossBackend, PageRankParityOnAllBackends) {
  // The variable-degree CSR workload: per-vertex adjacency rows over the
  // power-law graph, out-degree recovered from the row length.  Checksums
  // must agree with the sequential reference on every backend, and
  // bitwise with each other: every backend walks each node's rows in the
  // same order, so the skewed rows' FP accumulation is identical too.  The
  // degree skew must be visible in the audit columns (hub row far above
  // the mean).
  apps::pagerank::Params p;
  p.num_vertices = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 6;
  p.nprocs = 4;
  const auto seq = apps::pagerank::run_seq(p);
  api::BackendOptions opts = apps::pagerank::default_options();
  opts.transport = GetParam();
  double chaos_checksum = 0;
  for (const Backend b : kAllBackends) {
    const auto r = apps::pagerank::run(b, p, opts);
    EXPECT_TRUE(checksum_close(seq.checksum, r.checksum))
        << backend_name(b) << ": " << seq.checksum << " vs " << r.checksum;
    if (b == Backend::kChaos) chaos_checksum = r.checksum;
    EXPECT_EQ(r.checksum, chaos_checksum) << backend_name(b);
    EXPECT_GT(r.messages, 0u) << backend_name(b);
    EXPECT_EQ(r.rebuilds, 1) << backend_name(b);
    // refs = vertices (self refs) + 2 * edges; rows average ~2*m+1 refs
    // but the hubs are far longer.
    EXPECT_GT(r.refs, static_cast<std::uint64_t>(p.num_vertices)) << backend_name(b);
    EXPECT_GT(r.max_row, 5u * (static_cast<std::uint64_t>(p.edges_per_vertex) + 1))
        << backend_name(b);
  }
}

TEST(PageRank, MassIsConservedAndSkewed) {
  apps::pagerank::Params p;
  p.num_vertices = 2048;
  p.nprocs = 2;
  const auto adj = apps::pagerank::build_adjacency(p);
  ASSERT_EQ(adj.offsets.size(), static_cast<std::size_t>(p.num_vertices) + 1);
  EXPECT_EQ(adj.offsets.back(),
            static_cast<std::int64_t>(adj.values.size()));
  // Total rank mass stays 1 under the damped update (no sink loss in the
  // undirected adjacency: every vertex with an edge pushes all its mass).
  const auto ranks = apps::pagerank::seq_ranks(p);
  double mass = 0;
  for (const double r : ranks) mass += r;
  EXPECT_NEAR(mass, 1.0, 1e-9);
  // Power-law skew: the hub degree dwarfs the mean degree.
  std::int64_t max_deg = 0;
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    max_deg = std::max(max_deg, adj.offsets[static_cast<std::size_t>(v) + 1] -
                                    adj.offsets[static_cast<std::size_t>(v)]);
  }
  const double mean_deg = static_cast<double>(adj.values.size()) /
                          static_cast<double>(p.num_vertices);
  EXPECT_GT(static_cast<double>(max_deg), 5.0 * mean_deg);
  // And the hub's rank outruns the uniform share.
  EXPECT_GT(*std::max_element(ranks.begin(), ranks.end()),
            5.0 / static_cast<double>(p.num_vertices));
  const auto seq_a = apps::pagerank::run_seq(p);
  const auto seq_b = apps::pagerank::run_seq(p);
  EXPECT_EQ(seq_a.checksum, seq_b.checksum);  // deterministic
}

TEST_P(CrossBackend, MoldynParityOnAllBackends) {
  apps::moldyn::Params p;
  p.num_molecules = 512;
  p.num_steps = 6;
  p.update_interval = 3;
  p.box = 8.0;
  p.cutoff = 1.4;
  p.nprocs = 4;
  const auto sys = apps::moldyn::make_system(p);
  const auto seq = apps::moldyn::run_seq(p, sys);
  api::BackendOptions opts = apps::moldyn::default_options();
  opts.region_bytes = 8u << 20;
  opts.transport = GetParam();
  for (const Backend b : kAllBackends) {
    const auto r = apps::moldyn::run(b, p, sys, opts);
    EXPECT_TRUE(checksum_close(seq.checksum, r.checksum))
        << backend_name(b) << ": " << seq.checksum << " vs " << r.checksum;
    EXPECT_EQ(r.rebuilds, 2) << backend_name(b);  // steps=6, interval=3
  }
}

TEST(CrossBackend, MessageCountsAgreeAcrossTransports) {
  // Same kernel, same backend, both fabrics: the traffic must be
  // identical message for message and byte for byte.
  apps::spmv::Params p;
  p.num_rows = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 4;
  p.nprocs = 4;
  for (const Backend b : kAllBackends) {
    api::BackendOptions inproc = apps::spmv::default_options();
    inproc.transport = net::TransportKind::kInProc;
    api::BackendOptions socket = apps::spmv::default_options();
    socket.transport = net::TransportKind::kSocket;
    const auto ri = apps::spmv::run(b, p, inproc);
    const auto rs = apps::spmv::run(b, p, socket);
    EXPECT_EQ(ri.messages, rs.messages) << backend_name(b);
    EXPECT_EQ(ri.megabytes, rs.megabytes) << backend_name(b);
    EXPECT_TRUE(checksum_close(ri.checksum, rs.checksum)) << backend_name(b);
  }
}

TEST(CrossBackend, PageRankMessageCountsAgreeAcrossTransports) {
  // The same exactness for the variable-degree CSR workload: hub-length
  // rows and all, the fabric changes what a message costs, never what it
  // carries.
  apps::pagerank::Params p;
  p.num_vertices = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 4;
  p.nprocs = 4;
  for (const Backend b : kAllBackends) {
    api::BackendOptions inproc = apps::pagerank::default_options();
    inproc.transport = net::TransportKind::kInProc;
    api::BackendOptions socket = apps::pagerank::default_options();
    socket.transport = net::TransportKind::kSocket;
    const auto ri = apps::pagerank::run(b, p, inproc);
    const auto rs = apps::pagerank::run(b, p, socket);
    EXPECT_EQ(ri.messages, rs.messages) << backend_name(b);
    EXPECT_EQ(ri.megabytes, rs.megabytes) << backend_name(b);
    EXPECT_TRUE(checksum_close(ri.checksum, rs.checksum)) << backend_name(b);
  }
}

// The schedule parity suite: the tournament reduction must produce the
// same physics as the serial rotation on every backend (CHAOS ignores the
// knob — its row is the control) over both fabrics.
class ScheduleParity
    : public ::testing::TestWithParam<
          std::tuple<net::TransportKind, RoundSchedule>> {
 public:
  static api::BackendOptions options(api::BackendOptions base) {
    base.transport = std::get<0>(GetParam());
    base.round_schedule = std::get<1>(GetParam());
    return base;
  }
};

INSTANTIATE_TEST_SUITE_P(
    TransportsXSchedules, ScheduleParity,
    ::testing::Combine(::testing::Values(net::TransportKind::kInProc,
                                         net::TransportKind::kSocket),
                       ::testing::Values(RoundSchedule::kSerial,
                                         RoundSchedule::kTournament)),
    [](const auto& info) {
      return std::string(net::transport_name(std::get<0>(info.param))) + "_" +
             round_schedule_name(std::get<1>(info.param));
    });

TEST_P(ScheduleParity, PageRankOnAllBackends) {
  apps::pagerank::Params p;
  p.num_vertices = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 6;
  p.nprocs = 4;
  const auto seq = apps::pagerank::run_seq(p);
  const auto opts = options(apps::pagerank::default_options());
  for (const Backend b : kAllBackends) {
    const auto r = apps::pagerank::run(b, p, opts);
    EXPECT_TRUE(checksum_close(seq.checksum, r.checksum))
        << backend_name(b) << ": " << seq.checksum << " vs " << r.checksum;
    EXPECT_GT(r.barriers_per_step, 0.0) << backend_name(b);
  }
}

TEST_P(ScheduleParity, MoldynOnAllBackends) {
  // The rebuilding workload: the tournament pairing is re-derived from the
  // re-published touch matrix at every rebuild, not frozen at step 0.
  apps::moldyn::Params p;
  p.num_molecules = 512;
  p.num_steps = 6;
  p.update_interval = 3;
  p.box = 8.0;
  p.cutoff = 1.4;
  p.nprocs = 4;
  const auto sys = apps::moldyn::make_system(p);
  const auto seq = apps::moldyn::run_seq(p, sys);
  auto opts = options(apps::moldyn::default_options());
  opts.region_bytes = 8u << 20;
  for (const Backend b : kAllBackends) {
    const auto r = apps::moldyn::run(b, p, sys, opts);
    EXPECT_TRUE(checksum_close(seq.checksum, r.checksum))
        << backend_name(b) << ": " << seq.checksum << " vs " << r.checksum;
    EXPECT_EQ(r.rebuilds, 2) << backend_name(b);
    // Tmk base runs Tmk optimized's code minus its Validate declarations.
    if (b == Backend::kTmkBase) {
      EXPECT_EQ(r.tmk.validate_calls, 0u);
      EXPECT_EQ(r.tmk.cross_prefetch_posts, 0u);
    } else if (b == Backend::kTmkOptimized) {
      EXPECT_GT(r.tmk.validate_calls, 0u);
    }
  }
}

TEST(RoundSchedule, TournamentStrictlyFewerBarriersPerStep) {
  // The acceptance metric, in barriers (deterministic), not seconds: at
  // nprocs >= 4 the fused pairing rounds must beat the serial rotation's
  // nprocs barriers per step on both moldyn and pagerank.
  const auto barriers = [](api::Backend b, RoundSchedule s,
                           bool moldyn_workload) {
    api::BackendOptions opts;
    opts.round_schedule = s;
    if (moldyn_workload) {
      apps::moldyn::Params p;
      p.num_molecules = 512;
      p.num_steps = 6;
      p.update_interval = 3;
      p.box = 8.0;
      p.cutoff = 1.4;
      p.nprocs = 4;
      opts.region_bytes = 8u << 20;
      const auto sys = apps::moldyn::make_system(p);
      return apps::moldyn::run(b, p, sys, opts).barriers_per_step;
    }
    apps::pagerank::Params p;
    p.num_vertices = 1024;
    p.edges_per_vertex = 4;
    p.num_steps = 6;
    p.nprocs = 4;
    return apps::pagerank::run(b, p, opts).barriers_per_step;
  };
  for (const bool moldyn_workload : {true, false}) {
    for (const Backend b : {Backend::kTmkBase, Backend::kTmkOptimized}) {
      const double serial = barriers(b, RoundSchedule::kSerial,
                                     moldyn_workload);
      const double tour = barriers(b, RoundSchedule::kTournament,
                                   moldyn_workload);
      // serial: nprocs rounds + step barrier; tournament: at most
      // ceil(log2(nprocs)) fused rounds + step barrier.
      EXPECT_GE(serial, 5.0) << backend_name(b);
      EXPECT_LT(tour, serial)
          << backend_name(b) << (moldyn_workload ? " moldyn" : " pagerank");
      EXPECT_LE(tour, 3.5)
          << backend_name(b) << (moldyn_workload ? " moldyn" : " pagerank");
    }
  }
}

TEST(CrossStepPrefetch, TrafficIsExactlyEqualWithAndWithout) {
  // The prefetch contract: posting the next round's aggregated diff
  // requests from the barrier return path moves the wait, never the
  // traffic.  Message and byte counts must match exactly under both
  // schedules, and the prefetched run must actually have prefetched.
  apps::pagerank::Params p;
  p.num_vertices = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 6;
  p.nprocs = 4;
  const auto seq = apps::pagerank::run_seq(p);
  for (const RoundSchedule s : kAllSchedules) {
    api::BackendOptions off = apps::pagerank::default_options();
    off.round_schedule = s;
    api::BackendOptions on = off;
    on.cross_step_prefetch = true;
    const auto r_off =
        apps::pagerank::run(Backend::kTmkOptimized, p, off);
    const auto r_on = apps::pagerank::run(Backend::kTmkOptimized, p, on);
    EXPECT_EQ(r_off.messages, r_on.messages) << round_schedule_name(s);
    EXPECT_EQ(r_off.megabytes, r_on.megabytes) << round_schedule_name(s);
    EXPECT_EQ(r_off.barriers_per_step, r_on.barriers_per_step)
        << round_schedule_name(s);
    EXPECT_EQ(r_off.tmk.cross_prefetch_posts, 0u) << round_schedule_name(s);
    EXPECT_GT(r_on.tmk.cross_prefetch_posts, 0u) << round_schedule_name(s);
    EXPECT_TRUE(checksum_close(seq.checksum, r_on.checksum))
        << round_schedule_name(s);
    EXPECT_TRUE(checksum_close(r_off.checksum, r_on.checksum))
        << round_schedule_name(s);
  }
}

TEST(CrossStepPrefetch, IgnoredOnBaseBackend) {
  // Demand paging has no aggregated requests to move early; the option
  // must be inert there so base traffic stays base traffic.
  apps::spmv::Params p;
  p.num_rows = 1024;
  p.edges_per_vertex = 4;
  p.num_steps = 4;
  p.nprocs = 4;
  api::BackendOptions off = apps::spmv::default_options();
  api::BackendOptions on = off;
  on.cross_step_prefetch = true;
  const auto r_off = apps::spmv::run(Backend::kTmkBase, p, off);
  const auto r_on = apps::spmv::run(Backend::kTmkBase, p, on);
  EXPECT_EQ(r_off.messages, r_on.messages);
  EXPECT_EQ(r_off.megabytes, r_on.megabytes);
  EXPECT_EQ(r_on.tmk.cross_prefetch_posts, 0u);
}

// A small deterministic diffusion kernel for exercising the
// data-dependent-iteration contract: fixed scattered rows, a declared
// state read at every rebuild (the builder itself reads none), and hooks
// for rebuild_when / converged.  State keeps
// changing every step (unlike BFS/CC, which converge "quietly"), so a
// prefetch posted at the final step's barrier exit has real pages in
// flight when an early exit abandons it.
struct IterationCase {
  std::int64_t n = 1024;
  std::uint32_t nprocs = 4;
  int warmup_steps = 0;
  int num_steps = 6;
  int update_interval = 0;
  std::function<bool(int)> rebuild_when;
  int converge_after = 0;  ///< >0: converged flag fires at this step count
  RebuildReads reads = RebuildReads::kAll;  ///< the declared state read
};

KernelSpec<double> make_iteration_spec(const IterationCase& c) {
  KernelSpec<double> spec;
  spec.name = "iteration-case";
  spec.num_elements = c.n;
  spec.owner_range = part::block_partition(c.n, c.nprocs);
  spec.initial_state.resize(static_cast<std::size_t>(c.n));
  for (std::int64_t i = 0; i < c.n; ++i) {
    spec.initial_state[static_cast<std::size_t>(i)] =
        static_cast<double>(i % 19) / 7.0;
  }
  spec.num_steps = c.num_steps;
  spec.warmup_steps = c.warmup_steps;
  spec.update_interval = c.update_interval;
  spec.rebuild_when = c.rebuild_when;
  spec.rebuild_reads = c.reads;
  spec.max_items_per_node = c.n;
  spec.max_refs_per_node = 3 * c.n;

  const auto ranges = spec.owner_range;
  const std::int64_t n = c.n;
  spec.build_items = [ranges, n](IrregularNode& node, std::span<const double>) {
    const part::Range mine = ranges[node.id()];
    WorkItems items;
    for (std::int64_t i = mine.begin; i < mine.end; i += 2) {
      items.push_row({i, (i * 7 + 11) % n, (i * 3 + 5) % n});
    }
    return items;
  };
  spec.compute = [](IrregularNode&, const KernelCtx<double>& ctx) {
    for (std::size_t k = 0; k < ctx.num_items(); ++k) {
      const auto row = ctx.refs_of(k);
      const double xi = ctx.x[static_cast<std::size_t>(row[0])];
      for (std::size_t j = 1; j < row.size(); ++j) {
        const double d = xi - ctx.x[static_cast<std::size_t>(row[j])];
        ctx.f[static_cast<std::size_t>(row[0])] -= d;
        ctx.f[static_cast<std::size_t>(row[j])] += d;
      }
    }
  };
  spec.update = [](std::span<double> x, std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += 0.0625 * f[i];
  };
  if (c.converge_after > 0) {
    // Converges by fiat after a fixed number of steps — deterministic and
    // node-agnostic, while the state is still in motion.
    auto count = std::make_shared<std::vector<int>>(c.nprocs, 0);
    const int after = c.converge_after;
    spec.converged = [count, after](IrregularNode& node,
                                    std::span<const double>) {
      return ++(*count)[node.id()] >= after;
    };
  }
  spec.checksum = [](std::span<const double> x) {
    double s = 0, s2 = 0;
    for (const double v : x) {
      s += v;
      s2 += v * v;
    }
    return s + s2;
  };
  return spec;
}

// Regression (rebuild_needed step-0 semantics): the bootstrap build at
// step 0 is that step's rebuild, exactly once, even when the
// update_interval cadence divides 0 AND rebuild_when(0) fires too.  A
// naive "initial build, then check the cadence" runs the inspector twice
// at step 0 and KernelResult::rebuilds comes out one high.
TEST(RebuildSchedule, StepZeroBuildsExactlyOnce) {
  struct Expect {
    int update_interval;
    std::function<bool(int)> when;
    std::int64_t rebuilds;  // over warmup(1) + timed(5) = global steps 0..5
  };
  const std::vector<Expect> cases = {
      // Cadence divides 0: steps 0,2,4 — not 0 twice.
      {2, nullptr, 3},
      // Cadence AND predicate both fire at 0: still one build there.
      {2, [](int s) { return s % 3 == 0; }, 4},  // 0,2,3,4 (0 once)
      // Predicate-only cadence: 0 (bootstrap), 3.
      {0, [](int s) { return s % 3 == 0; }, 2},
      // Static structure: the bootstrap build alone.
      {0, nullptr, 1},
      // Every step.
      {1, nullptr, 6},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    IterationCase c;
    c.warmup_steps = 1;
    c.num_steps = 5;
    c.update_interval = cases[i].update_interval;
    c.rebuild_when = cases[i].when;
    double checksums[3];
    int bi = 0;
    for (const Backend b : kAllBackends) {
      BackendOptions opts;
      opts.region_bytes = 16u << 20;
      opts.table = chaos::TableKind::kReplicated;
      const auto r = run_kernel(b, make_iteration_spec(c), opts);
      EXPECT_EQ(r.rebuilds, cases[i].rebuilds)
          << "case " << i << " on " << backend_name(b);
      EXPECT_EQ(r.steps_run, c.num_steps)
          << "case " << i << " on " << backend_name(b);
      checksums[bi++] = r.checksum;
    }
    EXPECT_EQ(checksums[0], checksums[1]) << "case " << i;
    EXPECT_EQ(checksums[1], checksums[2]) << "case " << i;
  }
}

// The declared read set moves only the rebuild's state traffic.  The
// iteration-case builder reads no state, so every declaration leaves the
// numerics bit-identical on every backend; what differs is what each
// backend fetches for it.  No Tmk optimized inequality is pinned: with an
// own-block read the compute Validate fetches the remote pages the
// rebuild read no longer brought in, which can add a request per producer.
TEST(RebuildReads, DeclarationMovesOnlyTheStateRead) {
  const RebuildReads kinds[] = {RebuildReads::kNothing,
                                RebuildReads::kOwnBlock, RebuildReads::kAll};
  const Backend backends[] = {Backend::kChaos, Backend::kTmkBase,
                              Backend::kTmkOptimized, Backend::kHybrid};
  std::uint64_t messages[4][3] = {};
  double checksum = 0;
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t k = 0; k < 3; ++k) {
      IterationCase c;
      c.rebuild_when = [](int) { return true; };
      c.reads = kinds[k];
      BackendOptions opts;
      opts.region_bytes = 16u << 20;
      opts.table = chaos::TableKind::kReplicated;
      const auto r = run_kernel(backends[b], make_iteration_spec(c), opts);
      if (b == 0 && k == 0) checksum = r.checksum;
      EXPECT_EQ(r.checksum, checksum)  // bitwise, not approximate
          << backend_name(backends[b]) << " reads " << k;
      messages[b][k] = r.messages;
    }
  }
  // CHAOS and the hybrid: the owned block is local, so only the
  // whole-state read crosses the fabric (an allgather, a slice Validate).
  for (const std::size_t b : {std::size_t{0}, std::size_t{3}}) {
    EXPECT_EQ(messages[b][1], messages[b][0]) << backend_name(backends[b]);
    EXPECT_LT(messages[b][1], messages[b][2]) << backend_name(backends[b]);
  }
  // Tmk base declares nothing: its demand faults fetch only what the
  // builder reads, and this builder reads nothing.
  EXPECT_EQ(messages[1][1], messages[1][0]);
  EXPECT_EQ(messages[1][2], messages[1][0]);
}

// A schedule-cache replay on Tmk base skips the builder's scan, so the
// backend walks the pages of the declared range instead.  A replayed
// own-block rebuild must fault in exactly the pages the fresh build did:
// walking all of x would fetch every peer's pages for nothing.
TEST(RebuildReads, CacheReplayFaultsOnlyTheDeclaredRange) {
  IterationCase c;
  c.rebuild_when = [](int) { return true; };
  c.reads = RebuildReads::kOwnBlock;
  KernelSpec<double> spec = make_iteration_spec(c);
  spec.structure_cacheable = true;
  // Scan the own block, as bfs and cc do, so the fresh build faults in
  // the boundary page a neighbour's update invalidated, and keep every
  // row inside the block, so nothing else reads the peers' pages.
  spec.build_items = [ranges = spec.owner_range](
                         IrregularNode& node, std::span<const double> all_x) {
    const part::Range mine = ranges[node.id()];
    volatile double sink = 0;
    WorkItems items;
    for (std::int64_t v = mine.begin; v < mine.end; ++v) {
      sink = sink + all_x[static_cast<std::size_t>(v)];
      items.push_row({v, std::min(v + 1, mine.end - 1)});
    }
    return items;
  };
  for (const Backend b : {Backend::kTmkBase, Backend::kTmkOptimized}) {
    BackendOptions opts;
    opts.region_bytes = 16u << 20;
    core::DsmRuntime rt(TmkBackend::dsm_config(c.nprocs, opts));
    TmkBackend backend(c.nprocs, b, opts);
    std::vector<std::vector<CachedRebuild>> trace(c.nprocs);
    RunSession record;
    record.store = [&trace](NodeId node, std::int64_t,
                            CachedRebuild&& artifact) {
      trace[node].push_back(std::move(artifact));
    };
    const KernelResult miss = backend.run_on(rt, spec, &record);
    rt.reset_arena();
    RunSession replay;
    replay.lookup = [&trace](NodeId node,
                             std::int64_t ord) -> const CachedRebuild* {
      return &trace[node].at(static_cast<std::size_t>(ord));
    };
    const KernelResult hit = backend.run_on(rt, spec, &replay);
    EXPECT_EQ(replay.cached_builds.load(), record.fresh_builds.load())
        << backend_name(b);
    EXPECT_EQ(replay.fresh_builds.load(), 0u) << backend_name(b);
    EXPECT_EQ(hit.checksum, miss.checksum) << backend_name(b);
    EXPECT_EQ(hit.messages, miss.messages) << backend_name(b);
    EXPECT_EQ(hit.bytes, miss.bytes) << backend_name(b);
    EXPECT_GT(miss.tmk.read_faults + miss.tmk.pages_prefetched, 0u)
        << backend_name(b);
  }
}

// Regression (prefetch leaked on early exit): with cross-step prefetch on,
// the backend posts the next rebuild's whole-state read from the step
// barrier's return path; when the convergence flag then ends the loop
// before the next validate, that post is in flight with nowhere to
// complete.  The teardown drain settles it — pre-fix, the ticket leaked
// (ASan-unhappy on the socket transport) and the accounting below could
// not balance.  Every posted prefetch must end as exactly one consume or
// one drain.
TEST(CrossStepPrefetch, DrainedOnEarlyConvergenceExit) {
  for (const RoundSchedule s : kAllSchedules) {
    IterationCase c;
    // Page-aligned chunks (4096 doubles / 4 nodes = 2 pages each): the
    // final checksum then touches only locally-valid owned pages, so
    // nothing accidentally "first-uses" the abandoned prefetch — it must
    // reach teardown in flight.
    c.n = 4096;
    c.num_steps = 8;
    c.converge_after = 4;  // early exit while the state is still changing
    c.rebuild_when = [](int) { return true; };
    BackendOptions off;
    off.region_bytes = 16u << 20;
    off.round_schedule = s;
    BackendOptions on = off;
    on.cross_step_prefetch = true;
    const auto r_off = run_kernel(Backend::kTmkOptimized,
                                  make_iteration_spec(c), off);
    const auto r_on = run_kernel(Backend::kTmkOptimized,
                                 make_iteration_spec(c), on);
    EXPECT_EQ(r_on.steps_run, 4) << round_schedule_name(s);
    EXPECT_EQ(r_off.checksum, r_on.checksum) << round_schedule_name(s);
    EXPECT_GT(r_on.tmk.cross_prefetch_posts, 0u) << round_schedule_name(s);
    // The early exit abandoned the final step's rebuild prefetch on every
    // node; teardown drained each one, and nothing fell through the
    // accounting.
    EXPECT_GT(r_on.tmk.cross_prefetch_drains, 0u) << round_schedule_name(s);
    EXPECT_EQ(r_on.tmk.cross_prefetch_posts,
              r_on.tmk.cross_prefetch_consumes +
                  r_on.tmk.cross_prefetch_drains)
        << round_schedule_name(s);
    EXPECT_EQ(r_off.tmk.cross_prefetch_posts, 0u) << round_schedule_name(s);
  }
}

// The non-exiting counterpart: when the step loop runs to its cap, no
// prefetch is ever left in flight (the final step posts nothing), so
// drains stay zero and traffic is exactly equal with and without
// prefetching — the original contract, now covering the rebuild-read
// prefetch too.
TEST(CrossStepPrefetch, RebuildReadTrafficEqualWithoutEarlyExit) {
  for (const RoundSchedule s : kAllSchedules) {
    IterationCase c;
    c.num_steps = 6;
    c.rebuild_when = [](int) { return true; };
    BackendOptions off;
    off.region_bytes = 16u << 20;
    off.round_schedule = s;
    BackendOptions on = off;
    on.cross_step_prefetch = true;
    const auto r_off = run_kernel(Backend::kTmkOptimized,
                                  make_iteration_spec(c), off);
    const auto r_on = run_kernel(Backend::kTmkOptimized,
                                 make_iteration_spec(c), on);
    EXPECT_EQ(r_off.messages, r_on.messages) << round_schedule_name(s);
    EXPECT_EQ(r_off.megabytes, r_on.megabytes) << round_schedule_name(s);
    EXPECT_EQ(r_off.checksum, r_on.checksum) << round_schedule_name(s);
    EXPECT_GT(r_on.tmk.cross_prefetch_posts, 0u) << round_schedule_name(s);
    EXPECT_EQ(r_on.tmk.cross_prefetch_drains, 0u) << round_schedule_name(s);
    EXPECT_EQ(r_on.tmk.cross_prefetch_posts,
              r_on.tmk.cross_prefetch_consumes)
        << round_schedule_name(s);
  }
}

// The in-process fabric without a wire model serves each request on the
// thread that sends it; a 1 ns wire model makes it refuse, so the same
// fabric queues every request for a service thread per node.  The two
// must be one protocol: bitwise-equal checksums, equal traffic and every
// exact DSM counter equal.
api::BackendOptions queued(api::BackendOptions opts) {
  opts.wire.latency_us = 0.001;
  return opts;
}

void expect_same_protocol(const DsmStats::Snapshot& inline_run,
                          const DsmStats::Snapshot& queued_run,
                          const std::string& label) {
  for (const DsmCounter& c : kDsmCounters) {
    if (c.gate != "exact") continue;
    EXPECT_EQ(inline_run.*c.value, queued_run.*c.value)
        << label << " " << c.name;
  }
}

TEST(ServiceMode, InlineAndQueuedServiceAgreeExactly) {
  apps::moldyn::Params mp;
  mp.num_molecules = 512;
  mp.num_steps = 6;
  mp.update_interval = 3;
  mp.box = 8.0;
  mp.cutoff = 1.4;
  mp.nprocs = 4;
  const auto sys = apps::moldyn::make_system(mp);
  apps::pagerank::Params pp;
  pp.num_vertices = 1024;
  pp.edges_per_vertex = 4;
  pp.num_steps = 6;
  pp.nprocs = 4;
  apps::graph::Params gp;
  gp.num_vertices = 1024;
  gp.chords_per_vertex = 2;
  gp.num_steps = 32;
  gp.nprocs = 4;

  struct Mode {
    const char* name;
    RoundSchedule schedule;
    bool prefetch;
  };
  struct App {
    const char* name;
    BackendOptions defaults;
    std::function<KernelResult(Backend, BackendOptions)> run;
  };
  const App apps_under_test[] = {
      {"moldyn", apps::moldyn::default_options(),
       [&](Backend b, BackendOptions o) {
         o.region_bytes = 8u << 20;
         return apps::moldyn::run(b, mp, sys, o);
       }},
      {"pagerank", apps::pagerank::default_options(),
       [&](Backend b, BackendOptions o) {
         return apps::pagerank::run(b, pp, o);
       }},
      {"bfs", apps::bfs::default_options(),
       [&](Backend b, BackendOptions o) {
         o.region_bytes = 16u << 20;
         return apps::bfs::run(b, gp, o);
       }},
  };
  for (const Mode m : {Mode{"serial", RoundSchedule::kSerial, false},
                       Mode{"tournament+prefetch", RoundSchedule::kTournament,
                            true}}) {
    for (const App& app : apps_under_test) {
      for (const Backend b : {Backend::kTmkBase, Backend::kTmkOptimized}) {
        BackendOptions opts = app.defaults;
        opts.round_schedule = m.schedule;
        opts.cross_step_prefetch = m.prefetch;
        const KernelResult inl = app.run(b, opts);
        const KernelResult que = app.run(b, queued(opts));
        const std::string label =
            std::string(app.name) + " " + backend_name(b) + " " + m.name;
        EXPECT_EQ(inl.checksum, que.checksum) << label;
        EXPECT_EQ(inl.steps_run, que.steps_run) << label;
        EXPECT_EQ(inl.messages, que.messages) << label;
        EXPECT_EQ(inl.bytes, que.bytes) << label;
        EXPECT_GT(inl.messages, 0u) << label;
        expect_same_protocol(inl.tmk, que.tmk, label);
      }
    }
  }
}

// Locks on both fabrics: in phase k node k % n takes the k % 3rd of three
// locks homed at node 0, adds to that lock's counter and rewrites its own
// block of a shared array.  The barrier after each phase fixes the acquire
// order, so the traffic is deterministic and must match exactly.  The
// locks live at the barrier manager because a home elsewhere would forward
// a release's metas in its next barrier arrival only if the release
// reached it first, which depends on timing; the manager's own arrival is
// a loopback message and is not counted.
struct LockRun {
  std::uint64_t checksum = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  DsmStats::Snapshot stats;
};

LockRun run_lock_program(const net::WireModel& wire) {
  constexpr std::uint32_t kNodes = 4;
  constexpr int kPhases = 12;
  constexpr std::size_t kBlock = 2048;
  core::DsmConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.region_bytes = 1u << 20;
  cfg.wire = wire;
  core::DsmRuntime rt(cfg);
  const auto counters = rt.alloc_global<std::int64_t>(3);
  const auto blocks = rt.alloc_global<std::int64_t>(kNodes * kBlock);
  std::vector<std::uint64_t> sums(kNodes);
  rt.run([&](core::DsmNode& self) {
    for (int k = 0; k < kPhases; ++k) {
      if (static_cast<NodeId>(k) % kNodes == self.id()) {
        const int slot = k % 3;
        const LockId lock = static_cast<LockId>(slot) * kNodes;
        self.lock_acquire(lock);
        std::int64_t* c = self.ptr(counters) + slot;
        *c = *c * 3 + k + 1;
        std::int64_t* mine = self.ptr(blocks) + self.id() * kBlock;
        for (std::size_t i = 0; i < kBlock; i += 97) mine[i] += *c;
        self.lock_release(lock);
      }
      self.barrier();
    }
    // Unsigned, so the hash wraps instead of overflowing.
    std::uint64_t sum = 0;
    for (int c = 0; c < 3; ++c) {
      sum = sum * 31 + static_cast<std::uint64_t>(self.ptr(counters)[c]);
    }
    for (std::size_t i = 0; i < kNodes * kBlock; ++i) {
      sum = sum * 7 + static_cast<std::uint64_t>(self.ptr(blocks)[i]);
    }
    sums[self.id()] = sum;
  });
  for (const std::uint64_t s : sums) EXPECT_EQ(s, sums[0]);
  return LockRun{sums[0], rt.total_messages(), rt.network().stats().bytes(),
                 rt.stats().snapshot()};
}

TEST(ServiceMode, LockProgramAgreesExactly) {
  const LockRun inl = run_lock_program(net::WireModel{});
  const LockRun que = run_lock_program(queued(BackendOptions{}).wire);
  EXPECT_EQ(inl.checksum, que.checksum);
  EXPECT_EQ(inl.messages, que.messages);
  EXPECT_EQ(inl.bytes, que.bytes);
  EXPECT_GT(inl.messages, 0u);
  EXPECT_EQ(inl.stats.lock_acquires, 12u);
  expect_same_protocol(inl.stats, que.stats, "locks");
}

TEST(CrossBackend, OptimizedAggregationBeatsDemandPaging) {
  apps::spmv::Params p;
  p.num_rows = 8192;
  p.edges_per_vertex = 4;
  p.num_steps = 4;
  p.nprocs = 4;
  api::BackendOptions opts;
  opts.region_bytes = 16u << 20;
  const auto base = apps::spmv::run(Backend::kTmkBase, p, opts);
  const auto opt = apps::spmv::run(Backend::kTmkOptimized, p, opts);
  EXPECT_TRUE(checksum_close(base.checksum, opt.checksum));
  EXPECT_LT(opt.messages, base.messages);
  EXPECT_GT(opt.tmk.pages_prefetched, 0u);
}

}  // namespace
}  // namespace sdsm::api
