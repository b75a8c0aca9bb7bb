#include "src/apps/moldyn/moldyn_common.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"

namespace sdsm::apps::moldyn {

System make_system(const Params& p) {
  SDSM_REQUIRE(p.num_molecules > 0 && p.nprocs >= 1);
  Rng rng(p.seed);

  // Jittered lattice fill of the box: spatially well-distributed and
  // deterministic.
  const auto side = static_cast<std::int64_t>(
      std::ceil(std::cbrt(static_cast<double>(p.num_molecules))));
  const double spacing = p.box / static_cast<double>(side);
  std::vector<double3> raw;
  raw.reserve(static_cast<std::size_t>(p.num_molecules));
  for (std::int64_t i = 0; i < p.num_molecules; ++i) {
    const std::int64_t cx = i % side;
    const std::int64_t cy = (i / side) % side;
    const std::int64_t cz = i / (side * side);
    double3 q;
    q.x = (static_cast<double>(cx) + 0.2 + 0.6 * rng.next_double()) * spacing;
    q.y = (static_cast<double>(cy) + 0.2 + 0.6 * rng.next_double()) * spacing;
    q.z = (static_cast<double>(cz) + 0.2 + 0.6 * rng.next_double()) * spacing;
    raw.push_back(q);
  }

  // RCB partition, then renumber so each node's molecules are contiguous.
  std::vector<part::Point3> pts(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    pts[i] = part::Point3{raw[i].x, raw[i].y, raw[i].z};
  }
  const auto owner = part::rcb_partition(pts, p.nprocs);
  const auto lists = part::owners_to_lists(owner, p.nprocs);

  System sys;
  sys.pos0.reserve(raw.size());
  sys.owner_range.resize(p.nprocs);
  std::int64_t cursor = 0;
  for (std::uint32_t node = 0; node < p.nprocs; ++node) {
    sys.owner_range[node].begin = cursor;
    for (const std::int64_t orig : lists[node]) {
      sys.pos0.push_back(raw[static_cast<std::size_t>(orig)]);
      ++cursor;
    }
    sys.owner_range[node].end = cursor;
  }
  SDSM_ENSURE(cursor == p.num_molecules);
  return sys;
}

namespace {

/// The molecules bucketed into the box's cutoff-sized cells by one
/// counting sort: cell c holds ids[start[c] .. start[c + 1]), ascending.
struct CellGrid {
  std::int64_t cells = 1;           ///< cells per box edge
  std::vector<std::int64_t> cell;   ///< each molecule's cell
  std::vector<std::int32_t> start;  ///< cells^3 + 1 offsets into ids
  std::vector<std::int32_t> ids;
};

CellGrid bucket_cells(const Params& p, std::span<const double3> pos) {
  CellGrid g;
  g.cells = static_cast<std::int64_t>(
      std::max(1.0, std::floor(p.box / p.cutoff)));
  const double inv_cell = static_cast<double>(g.cells) / p.box;
  const auto clampc = [&](double v) {
    const auto c = static_cast<std::int64_t>(v * inv_cell);
    return std::clamp<std::int64_t>(c, 0, g.cells - 1);
  };
  g.cell.resize(pos.size());
  g.start.assign(static_cast<std::size_t>(g.cells * g.cells * g.cells) + 1,
                 0);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double3& q = pos[i];
    g.cell[i] = (clampc(q.x) * g.cells + clampc(q.y)) * g.cells + clampc(q.z);
    ++g.start[static_cast<std::size_t>(g.cell[i]) + 1];
  }
  for (std::size_t c = 1; c < g.start.size(); ++c) {
    g.start[c] += g.start[c - 1];
  }
  std::vector<std::int32_t> next(g.start.begin(), g.start.end() - 1);
  g.ids.resize(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    g.ids[static_cast<std::size_t>(
        next[static_cast<std::size_t>(g.cell[i])]++)] =
        static_cast<std::int32_t>(i);
  }
  return g;
}

/// The pairs (a, b) with a in `mine`, b > a and |pos[a]-pos[b]| < cutoff,
/// ascending in a, then by neighbour cell, then ascending in b.
std::vector<Pair> scan_pairs(const Params& p, const CellGrid& g,
                             std::span<const double3> pos, part::Range mine) {
  const double cut2 = p.cutoff * p.cutoff;
  const std::int64_t cells = g.cells;
  std::vector<Pair> out;
  for (std::int64_t i = mine.begin; i < mine.end; ++i) {
    const double3& qi = pos[static_cast<std::size_t>(i)];
    const std::int64_t ci = g.cell[static_cast<std::size_t>(i)];
    const std::int64_t cx = ci / (cells * cells);
    const std::int64_t cy = (ci / cells) % cells;
    const std::int64_t cz = ci % cells;
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (std::int64_t dz = -1; dz <= 1; ++dz) {
          const std::int64_t nx = cx + dx, ny = cy + dy, nz = cz + dz;
          if (nx < 0 || ny < 0 || nz < 0 || nx >= cells || ny >= cells ||
              nz >= cells) {
            continue;
          }
          const auto c =
              static_cast<std::size_t>((nx * cells + ny) * cells + nz);
          for (std::int32_t k = g.start[c]; k < g.start[c + 1]; ++k) {
            const std::int32_t j = g.ids[static_cast<std::size_t>(k)];
            if (j <= i) continue;
            const double3 d = qi - pos[static_cast<std::size_t>(j)];
            if (d.norm2() < cut2) {
              out.push_back(Pair{static_cast<std::int32_t>(i), j});
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<Pair> build_pairs_of(const Params& p, const System& sys,
                                 std::span<const double3> pos, NodeId node) {
  SDSM_REQUIRE(pos.size() == sys.pos0.size());
  SDSM_REQUIRE(node < sys.owner_range.size());
  return scan_pairs(p, bucket_cells(p, pos), pos, sys.owner_range[node]);
}

std::vector<std::vector<Pair>> build_pairs(const Params& p, const System& sys,
                                           std::span<const double3> pos) {
  SDSM_REQUIRE(pos.size() == sys.pos0.size());
  const CellGrid grid = bucket_cells(p, pos);
  std::vector<std::vector<Pair>> out;
  out.reserve(sys.owner_range.size());
  for (const part::Range& mine : sys.owner_range) {
    out.push_back(scan_pairs(p, grid, pos, mine));
  }
  return out;
}

double interacting_fraction(const std::vector<std::vector<Pair>>& pairs,
                            std::int64_t num_molecules) {
  std::vector<bool> seen(static_cast<std::size_t>(num_molecules), false);
  for (const auto& group : pairs) {
    for (const Pair& pr : group) {
      seen[static_cast<std::size_t>(pr.a)] = true;
      seen[static_cast<std::size_t>(pr.b)] = true;
    }
  }
  std::int64_t n = 0;
  for (const bool b : seen) n += b ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(num_molecules);
}

double position_checksum(std::span<const double3> pos) {
  // Order-insensitive: plain sums of components and of squared norms.
  double s = 0, s2 = 0;
  for (const auto& q : pos) {
    s += q.x + q.y + q.z;
    s2 += q.norm2();
  }
  return s + s2;
}

AppRunResult run_seq(const Params& p, const System& sys) {
  std::vector<double3> pos(sys.pos0);
  std::vector<double3> forces(pos.size());
  std::vector<std::vector<Pair>> pairs;

  const Timer timer;
  for (int step = 0; step < p.num_steps; ++step) {
    if (step % p.update_interval == 0) {
      pairs = build_pairs(p, sys, pos);
    }
    std::fill(forces.begin(), forces.end(), double3{});
    for (const auto& group : pairs) {
      for (const Pair& pr : group) {
        // forces(n1) += force; forces(n2) -= force, per Figure 1.
        const double3 f = pair_force(pos[static_cast<std::size_t>(pr.a)],
                                     pos[static_cast<std::size_t>(pr.b)]);
        forces[static_cast<std::size_t>(pr.a)] += f;
        forces[static_cast<std::size_t>(pr.b)] -= f;
      }
    }
    for (std::size_t i = 0; i < pos.size(); ++i) {
      pos[i] += forces[i] * p.dt;
    }
  }

  AppRunResult r;
  r.seconds = timer.elapsed_s();
  r.checksum = position_checksum(pos);
  return r;
}

}  // namespace sdsm::apps::moldyn
