// Integration tests for moldyn: every backend of the unified API
// (TreadMarks base, TreadMarks optimized, CHAOS) must agree with the
// sequential reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/apps/moldyn/moldyn_common.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/common/rng.hpp"

namespace sdsm::apps::moldyn {
namespace {

Params small_params(std::uint32_t nprocs) {
  Params p;
  p.num_molecules = 512;
  p.num_steps = 6;
  p.update_interval = 3;
  p.box = 8.0;
  p.cutoff = 1.4;
  p.nprocs = nprocs;
  return p;
}

api::BackendOptions small_options() {
  api::BackendOptions o = default_options();
  o.region_bytes = 8u << 20;
  return o;
}

TEST(MoldynCommon, SystemIsDeterministicAndPartitioned) {
  const Params p = small_params(4);
  const System a = make_system(p);
  const System b = make_system(p);
  ASSERT_EQ(a.pos0.size(), b.pos0.size());
  for (std::size_t i = 0; i < a.pos0.size(); ++i) {
    EXPECT_EQ(a.pos0[i].x, b.pos0[i].x);
  }
  std::int64_t total = 0;
  for (const auto& r : a.owner_range) total += r.size();
  EXPECT_EQ(total, p.num_molecules);
  EXPECT_EQ(a.owner_range[0].begin, 0);
}

// The oracle: the original all-molecule builder, one std::vector per cell
// and an owner lookup per molecule.  build_pairs_of must reproduce its
// groups exactly, order included, because the pair order is the LIST
// contents and therefore the traffic.
std::vector<std::vector<Pair>> oracle_pairs(const Params& p, const System& sys,
                                            std::span<const double3> pos) {
  const double cut2 = p.cutoff * p.cutoff;
  const auto cells = static_cast<std::int64_t>(
      std::max(1.0, std::floor(p.box / p.cutoff)));
  const double inv_cell = static_cast<double>(cells) / p.box;
  auto cell_of = [&](const double3& q) {
    auto clampc = [&](double v) {
      auto c = static_cast<std::int64_t>(v * inv_cell);
      return std::clamp<std::int64_t>(c, 0, cells - 1);
    };
    return (clampc(q.x) * cells + clampc(q.y)) * cells + clampc(q.z);
  };
  std::vector<std::vector<std::int32_t>> bucket(
      static_cast<std::size_t>(cells * cells * cells));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    bucket[static_cast<std::size_t>(cell_of(pos[i]))].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::vector<Pair>> out(sys.owner_range.size());
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(pos.size()); ++i) {
    const double3& qi = pos[static_cast<std::size_t>(i)];
    const auto ci = cell_of(qi);
    const std::int64_t cx = ci / (cells * cells);
    const std::int64_t cy = (ci / cells) % cells;
    const std::int64_t cz = ci % cells;
    const NodeId me = api::owner_of(sys.owner_range, i);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (std::int64_t dz = -1; dz <= 1; ++dz) {
          const std::int64_t nx = cx + dx, ny = cy + dy, nz = cz + dz;
          if (nx < 0 || ny < 0 || nz < 0 || nx >= cells || ny >= cells ||
              nz >= cells) {
            continue;
          }
          for (const std::int32_t j :
               bucket[static_cast<std::size_t>((nx * cells + ny) * cells +
                                               nz)]) {
            if (j <= i) continue;
            const double3 d = qi - pos[static_cast<std::size_t>(j)];
            if (d.norm2() < cut2) {
              out[me].push_back(Pair{static_cast<std::int32_t>(i), j});
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(MoldynCommon, PerNodeBuilderMatchesTheAllMoleculeOracle) {
  for (const std::uint32_t nprocs : {1u, 2u, 4u, 8u}) {
    const Params p = small_params(nprocs);
    const System sys = make_system(p);
    // A seeded jitter of up to half the cutoff per coordinate moves
    // molecules across cell boundaries (and past the box edge, where the
    // cell index clamps).
    std::vector<double3> jittered = sys.pos0;
    Rng rng(7 + nprocs);
    const auto jitter = [&] { return (rng.next_double() - 0.5) * p.cutoff; };
    for (double3& q : jittered) {
      q.x += jitter();
      q.y += jitter();
      q.z += jitter();
    }
    const std::vector<double3>* const inputs[] = {&sys.pos0, &jittered};
    for (const std::vector<double3>* pos : inputs) {
      const auto oracle = oracle_pairs(p, sys, *pos);
      const auto all = build_pairs(p, sys, *pos);
      ASSERT_EQ(all.size(), nprocs);
      std::size_t total = 0;
      for (std::uint32_t n = 0; n < nprocs; ++n) {
        const auto mine = build_pairs_of(p, sys, *pos, n);
        ASSERT_EQ(mine.size(), oracle[n].size())
            << nprocs << " nodes, node " << n;
        for (std::size_t k = 0; k < mine.size(); ++k) {
          ASSERT_EQ(mine[k].a, oracle[n][k].a) << "node " << n << " #" << k;
          ASSERT_EQ(mine[k].b, oracle[n][k].b) << "node " << n << " #" << k;
        }
        ASSERT_EQ(all[n].size(), mine.size());
        EXPECT_TRUE(std::equal(all[n].begin(), all[n].end(), mine.begin(),
                               [](const Pair& x, const Pair& y) {
                                 return x.a == y.a && x.b == y.b;
                               }));
        total += mine.size();
      }
      EXPECT_GT(total, 0u);
    }
  }
}

TEST(MoldynCommon, PairsAreWithinCutoffAndDeduplicated) {
  const Params p = small_params(2);
  const System sys = make_system(p);
  auto groups = build_pairs(p, sys, sys.pos0);
  const double cut2 = p.cutoff * p.cutoff;
  std::set<std::pair<int, int>> seen;
  for (const auto& g : groups) {
    for (const Pair& pr : g) {
      EXPECT_LT(pr.a, pr.b);
      const double3 d = sys.pos0[static_cast<std::size_t>(pr.a)] -
                        sys.pos0[static_cast<std::size_t>(pr.b)];
      EXPECT_LT(d.norm2(), cut2);
      EXPECT_TRUE(seen.insert({pr.a, pr.b}).second) << "duplicate pair";
    }
  }
  EXPECT_GT(seen.size(), 0u);
}

TEST(MoldynCommon, PairsAssignedToOwnerOfFirstMolecule) {
  const Params p = small_params(4);
  const System sys = make_system(p);
  auto groups = build_pairs(p, sys, sys.pos0);
  for (std::size_t node = 0; node < groups.size(); ++node) {
    for (const Pair& pr : groups[node]) {
      EXPECT_EQ(api::owner_of(sys.owner_range, pr.a), node);
    }
  }
}

TEST(MoldynCommon, InteractingFractionInPlausibleRange) {
  const Params p = small_params(2);
  const System sys = make_system(p);
  auto groups = build_pairs(p, sys, sys.pos0);
  const double f = interacting_fraction(groups, p.num_molecules);
  EXPECT_GT(f, 0.1);
  EXPECT_LE(f, 1.0);
}

TEST(MoldynCommon, SequentialRunIsDeterministic) {
  const Params p = small_params(2);
  const System sys = make_system(p);
  const auto a = run_seq(p, sys);
  const auto b = run_seq(p, sys);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_NE(a.checksum, 0.0);
}

TEST(MoldynTmk, BaseMatchesSequential) {
  const Params p = small_params(2);
  const System sys = make_system(p);
  const auto seq = run_seq(p, sys);
  const auto par = run(api::Backend::kTmkBase, p, sys, small_options());
  EXPECT_TRUE(checksum_close(seq.checksum, par.checksum))
      << seq.checksum << " vs " << par.checksum;
  EXPECT_GT(par.messages, 0u);
}

TEST(MoldynTmk, OptimizedMatchesSequential) {
  const Params p = small_params(2);
  const System sys = make_system(p);
  const auto seq = run_seq(p, sys);
  const auto par = run(api::Backend::kTmkOptimized, p, sys, small_options());
  EXPECT_TRUE(checksum_close(seq.checksum, par.checksum))
      << seq.checksum << " vs " << par.checksum;
}

TEST(MoldynTmk, FourNodeVariantsMatchSequential) {
  const Params p = small_params(4);
  const System sys = make_system(p);
  const auto seq = run_seq(p, sys);
  for (const api::Backend b :
       {api::Backend::kTmkBase, api::Backend::kTmkOptimized}) {
    const auto par = run(b, p, sys, small_options());
    EXPECT_TRUE(checksum_close(seq.checksum, par.checksum))
        << api::backend_name(b) << ": " << seq.checksum << " vs "
        << par.checksum;
  }
}

TEST(MoldynTmk, OptimizedSendsFewerMessagesThanBase) {
  const Params p = small_params(4);
  const System sys = make_system(p);
  const auto base = run(api::Backend::kTmkBase, p, sys, small_options());
  const auto opt = run(api::Backend::kTmkOptimized, p, sys, small_options());
  EXPECT_LT(opt.messages, base.messages);
}

TEST(MoldynChaos, MatchesSequential) {
  const Params p = small_params(4);
  const System sys = make_system(p);
  const auto seq = run_seq(p, sys);
  const auto par = run(api::Backend::kChaos, p, sys);
  EXPECT_TRUE(checksum_close(seq.checksum, par.checksum))
      << seq.checksum << " vs " << par.checksum;
  EXPECT_GT(par.overhead_seconds, 0.0);  // inspector time
  EXPECT_EQ(par.rebuilds, 2);            // steps=6, interval=3
}

TEST(MoldynChaos, ReplicatedTableAlsoCorrectWithFewerMessages) {
  const Params p = small_params(4);
  const System sys = make_system(p);
  const auto seq = run_seq(p, sys);
  api::BackendOptions rep_opts = default_options();
  rep_opts.table = chaos::TableKind::kReplicated;
  const auto rep = run(api::Backend::kChaos, p, sys, rep_opts);
  const auto dist = run(api::Backend::kChaos, p, sys);  // distributed default
  EXPECT_TRUE(checksum_close(seq.checksum, rep.checksum));
  EXPECT_TRUE(checksum_close(seq.checksum, dist.checksum));
  // The distributed table pays extra lookup messages in the inspector.
  EXPECT_LT(rep.messages, dist.messages);
}

}  // namespace
}  // namespace sdsm::apps::moldyn
