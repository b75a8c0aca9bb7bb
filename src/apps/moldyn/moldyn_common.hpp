// Moldyn: CHARMM-like molecular dynamics with a cutoff interaction list
// (Section 5.1 of the paper).
//
// Molecules live in a periodic box.  Every UPDATE_INTERVAL steps the
// interaction list — all pairs within the cutoff radius — is rebuilt from
// current positions, each node building the pairs of the molecules it
// owns; between rebuilds the list is the indirection array of the force
// loop.  As in the paper, molecules are partitioned with RCB; we
// additionally renumber molecules so each processor's molecules are
// contiguous (the spatial locality the paper attributes to RCB, made
// explicit in index space).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/apps/app_types.hpp"
#include "src/common/types.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::apps::moldyn {

struct Params {
  std::int64_t num_molecules = 4096;
  int num_steps = 24;
  int update_interval = 12;  ///< rebuild the list every this many steps
  double box = 16.0;         ///< cubic box edge
  double cutoff = 1.45;      ///< interaction radius
  double dt = 1e-4;          ///< position update scale
  std::uint64_t seed = 42;
  std::uint32_t nprocs = 8;
};

/// Pair force kernel shared by every variant.  The paper's Figure 1 lists
/// the schematic `force = x(n1) - x(n2)`, but its sequential times (267 s
/// for 16384 molecules x 40 steps on an SP2 node) imply a CHARMM-weight
/// non-bonded kernel of a few hundred flops per pair; this Lennard-Jones
/// style force restores that compute/communication ratio.
inline double3 pair_force(const double3& xa, const double3& xb) {
  const double3 d = xa - xb;
  const double r2 = d.norm2() + 1e-2;
  const double inv = 1.0 / r2;
  const double inv3 = inv * inv * inv;
  return d * (inv3 * (inv3 - 0.5));
}

/// One interacting pair (0-based molecule ids; owner of `a` computes it).
struct Pair {
  std::int32_t a = 0;
  std::int32_t b = 0;
};

/// Initial conditions after RCB partitioning and renumbering.
struct System {
  std::vector<double3> pos0;             ///< renumbered initial positions
  std::vector<part::Range> owner_range;  ///< contiguous molecules per node
};

/// Deterministic initialization: jittered lattice positions, RCB partition,
/// renumber by owner.
System make_system(const Params& p);

/// Builds node `node`'s interacting pairs via cell lists: (a, b) with a
/// owned by `node`, a < b and |pos[a]-pos[b]| < cutoff, in deterministic
/// order (ascending a).  Buckets every molecule, since b may be anyone's,
/// but scans only the node's own molecules, as each processor rebuilds
/// its own part of the interaction list in the paper.
std::vector<Pair> build_pairs_of(const Params& p, const System& sys,
                                 std::span<const double3> pos, NodeId node);

/// Every node's pairs, grouped by owner: result[q] == build_pairs_of(...,
/// q).  The sequential reference and the capacity bound use it.
std::vector<std::vector<Pair>> build_pairs(const Params& p, const System& sys,
                                           std::span<const double3> pos);

/// Fraction of molecules that appear in at least one pair (the paper quotes
/// 31-53% for its default set).
double interacting_fraction(const std::vector<std::vector<Pair>>& pairs,
                            std::int64_t num_molecules);

/// Order-insensitive digest of final positions.
double position_checksum(std::span<const double3> pos);

/// Sequential reference (no runtime, no communication).
AppRunResult run_seq(const Params& p, const System& sys);

}  // namespace sdsm::apps::moldyn
