// Tests for the CHAOS inspector/executor baseline: translation tables,
// schedule construction with duplicate elimination, gather/scatter
// round-trips, and message accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "src/api/chaos_backend.hpp"
#include "src/apps/quickstart/quickstart.hpp"
#include "src/chaos/chaos_runtime.hpp"
#include "src/chaos/executor.hpp"
#include "src/chaos/inspector.hpp"
#include "src/chaos/translation_table.hpp"
#include "src/common/rng.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::chaos {
namespace {

std::vector<NodeId> block_owner_map(std::int64_t n, std::uint32_t p) {
  std::vector<NodeId> owner(n);
  for (std::int64_t i = 0; i < n; ++i) {
    owner[i] = part::block_owner(i, n, p);
  }
  return owner;
}

TEST(TranslationTable, RemapAssignsDenseLocalOffsets) {
  // Interleaved ownership: offsets must still be dense per owner.
  std::vector<NodeId> owner{0, 1, 0, 1, 0, 1};
  auto t = TranslationTable::build(owner, 2, TableKind::kReplicated);
  EXPECT_EQ(t.lookup(0).home, 0u);
  EXPECT_EQ(t.lookup(0).offset, 0);
  EXPECT_EQ(t.lookup(2).offset, 1);
  EXPECT_EQ(t.lookup(4).offset, 2);
  EXPECT_EQ(t.lookup(1).home, 1u);
  EXPECT_EQ(t.lookup(1).offset, 0);
  EXPECT_EQ(t.lookup(5).offset, 2);
  EXPECT_EQ(t.local_count(0), 3);
  EXPECT_EQ(t.local_count(1), 3);
}

TEST(TranslationTable, DistributedEntryHomesFollowBlockPartition) {
  auto owner = block_owner_map(100, 4);
  auto t = TranslationTable::build(owner, 4, TableKind::kDistributed);
  EXPECT_EQ(t.entry_home(0), 0u);
  EXPECT_EQ(t.entry_home(99), 3u);
  // Entry home is about table storage, not data ownership.
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(t.entry_home(i), part::block_owner(i, 100, 4));
  }
}

TEST(TranslationTable, PagedEntryHomesRoundRobinByPage) {
  auto owner = block_owner_map(100, 4);
  auto t = TranslationTable::build(owner, 4, TableKind::kPaged, 10);
  EXPECT_EQ(t.entry_home(0), 0u);
  EXPECT_EQ(t.entry_home(9), 0u);
  EXPECT_EQ(t.entry_home(10), 1u);
  EXPECT_EQ(t.entry_home(45), 0u);  // page 4 % 4
}

TEST(TranslationTable, ReplicatedCostsFullTablePerNode) {
  auto owner = block_owner_map(1000, 4);
  auto rep = TranslationTable::build(owner, 4, TableKind::kReplicated);
  auto dist = TranslationTable::build(owner, 4, TableKind::kDistributed);
  EXPECT_EQ(rep.bytes_per_node(0), 1000 * sizeof(TableEntry));
  EXPECT_EQ(dist.bytes_per_node(0), 250 * sizeof(TableEntry));
}

TEST(ChaosRuntime, BarrierSynchronizes) {
  ChaosRuntime rt(4);
  std::atomic<int> phase0{0};
  rt.run([&](ChaosNode& node) {
    phase0.fetch_add(1);
    node.barrier();
    EXPECT_EQ(phase0.load(), 4);
  });
}

TEST(ChaosRuntime, AllToAllDeliversPersonalizedPayloads) {
  ChaosRuntime rt(3);
  rt.run([&](ChaosNode& node) {
    std::vector<std::vector<std::uint8_t>> out(3);
    for (NodeId p = 0; p < 3; ++p) {
      if (p == node.id()) continue;
      out[p] = {static_cast<std::uint8_t>(10 * node.id() + p)};
    }
    auto in = node.all_to_all(std::move(out));
    for (NodeId p = 0; p < 3; ++p) {
      if (p == node.id()) continue;
      ASSERT_EQ(in[p].size(), 1u);
      EXPECT_EQ(in[p][0], 10 * p + node.id());
    }
  });
}

TEST(Inspector, BuildsConsistentScheduleForBlockPartition) {
  // 2 nodes, 20 elements, block partition.  Node 0 references some of node
  // 1's elements and vice versa.
  const std::int64_t n = 20;
  const std::uint32_t nprocs = 2;
  auto owner = block_owner_map(n, nprocs);
  auto table = TranslationTable::build(owner, nprocs, TableKind::kReplicated);
  ChaosRuntime rt(nprocs);
  rt.run([&](ChaosNode& node) {
    // Each node references its own elements plus two remote ones.
    std::vector<std::int64_t> refs;
    const auto range = part::block_partition(n, nprocs)[node.id()];
    for (std::int64_t i = range.begin; i < range.end; ++i) refs.push_back(i);
    refs.push_back((range.end + 1) % n);
    refs.push_back((range.end + 3) % n);

    InspectorStats stats;
    Schedule sched = build_schedule(node, refs, table, &stats);
    EXPECT_EQ(sched.num_ghosts, 2);
    EXPECT_EQ(stats.distinct_remote, 2);
    // The peer must be scheduled to send exactly 2 elements.
    const NodeId peer = 1 - node.id();
    EXPECT_EQ(sched.recv_ghost[peer].size(), 2u);
    EXPECT_EQ(sched.send_elems[peer].size(), 2u);
  });
}

TEST(Inspector, DuplicateReferencesAreEliminated) {
  const std::int64_t n = 16;
  auto owner = block_owner_map(n, 2);
  auto table = TranslationTable::build(owner, 2, TableKind::kReplicated);
  ChaosRuntime rt(2);
  rt.run([&](ChaosNode& node) {
    std::vector<std::int64_t> refs;
    const std::int64_t remote = node.id() == 0 ? 12 : 2;
    for (int i = 0; i < 50; ++i) refs.push_back(remote);  // same element 50x
    InspectorStats stats;
    Schedule sched = build_schedule(node, refs, table, &stats);
    EXPECT_EQ(stats.references, 50);
    EXPECT_EQ(stats.distinct_remote, 1);  // dedup worked
    EXPECT_EQ(sched.num_ghosts, 1);
  });
}

TEST(Inspector, DistributedTableLookupsGenerateMessages) {
  const std::int64_t n = 64;
  auto owner = block_owner_map(n, 4);
  auto rep = TranslationTable::build(owner, 4, TableKind::kReplicated);
  auto dist = TranslationTable::build(owner, 4, TableKind::kDistributed);

  auto run_and_count = [&](const TranslationTable& table) {
    ChaosRuntime rt(4);
    rt.run([&](ChaosNode& node) {
      std::vector<std::int64_t> refs;
      for (std::int64_t i = 0; i < n; i += 3) refs.push_back(i);
      build_schedule(node, refs, table);
    });
    return rt.total_messages();
  };

  // The distributed table needs two extra all-to-all rounds.
  EXPECT_GT(run_and_count(dist), run_and_count(rep));
}

TEST(Executor, GatherBringsCurrentRemoteValues) {
  const std::int64_t n = 24;
  const std::uint32_t nprocs = 3;
  auto owner = block_owner_map(n, nprocs);
  auto table = TranslationTable::build(owner, nprocs, TableKind::kReplicated);
  ChaosRuntime rt(nprocs);
  rt.run([&](ChaosNode& node) {
    const auto range = part::block_partition(n, nprocs)[node.id()];
    std::vector<double> local(static_cast<std::size_t>(range.size()));
    for (std::int64_t i = 0; i < range.size(); ++i) {
      local[static_cast<std::size_t>(i)] =
          static_cast<double>(range.begin + i) * 10.0;
    }
    // Every node wants the first element of each other node's block.
    std::vector<std::int64_t> refs;
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      if (p != node.id()) {
        refs.push_back(part::block_partition(n, nprocs)[p].begin);
      }
    }
    Schedule sched = build_schedule(node, refs, table);
    std::vector<double> ghosts(static_cast<std::size_t>(sched.num_ghosts));
    gather<double>(node, sched, local, ghosts);
    for (const std::int64_t g : refs) {
      const auto slot = sched.ghost_of_global(g);
      EXPECT_EQ(ghosts[static_cast<std::size_t>(slot)],
                static_cast<double>(g) * 10.0);
    }
  });
}

TEST(Executor, ScatterAccumulatesIntoOwners) {
  const std::int64_t n = 8;
  const std::uint32_t nprocs = 2;
  auto owner = block_owner_map(n, nprocs);
  auto table = TranslationTable::build(owner, nprocs, TableKind::kReplicated);
  ChaosRuntime rt(nprocs);
  rt.run([&](ChaosNode& node) {
    const auto range = part::block_partition(n, nprocs)[node.id()];
    std::vector<double> local(static_cast<std::size_t>(range.size()), 1.0);
    // Each node contributes 5.0 to the other's first element.
    const std::int64_t target = node.id() == 0 ? 4 : 0;
    std::vector<std::int64_t> refs{target};
    Schedule sched = build_schedule(node, refs, table);
    std::vector<double> ghosts(static_cast<std::size_t>(sched.num_ghosts), 5.0);
    scatter<double>(node, sched, std::span<double>(local), ghosts,
                    [](double a, double b) { return a + b; });
    // My element 0 (global range.begin) received the remote 5.0.
    EXPECT_EQ(local[0], 6.0);
    EXPECT_EQ(local[1], 1.0);
  });
}

TEST(Executor, GatherScatterRoundTripConservesTotals) {
  // Force-accumulation pattern: gather x, compute, scatter contributions.
  // The sum of all force entries must equal the sum of all contributions.
  const std::int64_t n = 120;
  const std::uint32_t nprocs = 4;
  auto owner = block_owner_map(n, nprocs);
  auto table = TranslationTable::build(owner, nprocs, TableKind::kReplicated);
  ChaosRuntime rt(nprocs);
  std::vector<double> final_sums(nprocs, 0.0);
  rt.run([&](ChaosNode& node) {
    sdsm::Rng rng(1000 + node.id());
    const auto range = part::block_partition(n, nprocs)[node.id()];
    std::vector<double> force(static_cast<std::size_t>(range.size()), 0.0);

    // Reference 30 random elements anywhere.
    std::vector<std::int64_t> refs;
    for (int i = 0; i < 30; ++i) {
      refs.push_back(static_cast<std::int64_t>(rng.next_below(n)));
    }
    Schedule sched = build_schedule(node, refs, table);
    auto local_refs = localize_references(node.id(), refs, table, sched);

    // Contribute 1.0 to every referenced element (local or ghost).
    std::vector<double> ghosts(static_cast<std::size_t>(sched.num_ghosts), 0.0);
    const auto local_n = static_cast<std::int32_t>(range.size());
    for (const std::int32_t lr : local_refs) {
      if (lr < local_n) {
        force[static_cast<std::size_t>(lr)] += 1.0;
      } else {
        ghosts[static_cast<std::size_t>(lr - local_n)] += 1.0;
      }
    }
    scatter<double>(node, sched, std::span<double>(force), ghosts,
                    [](double a, double b) { return a + b; });
    final_sums[node.id()] =
        std::accumulate(force.begin(), force.end(), 0.0);
    node.barrier();
  });
  const double total = std::accumulate(final_sums.begin(), final_sums.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 4 * 30.0);  // every contribution landed exactly once
}

TEST(Executor, OneMessagePerDirectionPerActivePair) {
  // Run the same program twice, with and without the gather; the message
  // difference is exactly the gather traffic: one direction active -> one
  // data message.
  const std::int64_t n = 40;
  const std::uint32_t nprocs = 2;
  auto owner = block_owner_map(n, nprocs);
  auto table = TranslationTable::build(owner, nprocs, TableKind::kReplicated);

  auto run_once = [&](bool with_gather) {
    ChaosRuntime rt(nprocs);
    rt.run([&](ChaosNode& node) {
      // Node 0 needs 10 elements from node 1; node 1 needs nothing.
      std::vector<std::int64_t> refs;
      if (node.id() == 0) {
        for (std::int64_t i = 20; i < 30; ++i) refs.push_back(i);
      }
      Schedule sched = build_schedule(node, refs, table);
      node.barrier();
      if (with_gather) {
        const auto range = part::block_partition(n, nprocs)[node.id()];
        std::vector<double> local(static_cast<std::size_t>(range.size()), 2.0);
        std::vector<double> ghosts(static_cast<std::size_t>(sched.num_ghosts));
        gather<double>(node, sched, local, ghosts);
      }
      node.barrier();
    });
    return rt.total_messages();
  };

  EXPECT_EQ(run_once(true) - run_once(false), 1u);
}

TEST(ChaosBackend, WarmRuntimeReportsTheFreshByteCount) {
  // A job's bytes are the difference of two integer cuts of the fabric
  // total, so traffic a long-lived runtime carried before the job (a warm
  // serving engine) cannot leak into it.  Taking the cuts through a
  // megabytes double truncated this job's 938,752 B to 938,753 B.
  const apps::quickstart::Params p;
  const api::KernelSpec<double> spec = apps::quickstart::make_kernel(p);
  api::ChaosBackend backend(p.nprocs, apps::quickstart::default_options());

  ChaosRuntime fresh(p.nprocs);
  const api::KernelResult cold = backend.run_on(fresh, spec, nullptr);

  constexpr std::uint64_t kEarlierBytes = 147874;
  ChaosRuntime warm(p.nprocs);
  warm.run([](ChaosNode& node) {
    std::vector<std::vector<std::uint8_t>> out(node.num_nodes());
    if (node.id() == 0) out[1].resize(kEarlierBytes);
    node.all_to_all(std::move(out));
  });
  ASSERT_EQ(warm.network().stats().bytes(), kEarlierBytes);
  const api::KernelResult served = backend.run_on(warm, spec, nullptr);

  EXPECT_EQ(served.bytes, cold.bytes);
  EXPECT_EQ(served.messages, cold.messages);
  EXPECT_EQ(served.checksum, cold.checksum);
}

}  // namespace
}  // namespace sdsm::chaos
