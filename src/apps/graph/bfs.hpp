// Level-synchronous breadth-first search as a frontier-driven irregular
// kernel — the first workload whose item list is data-dependent and
// changes at EVERY step.
//
// State x is the tentative distance array (unreached = num_vertices, the
// min-reduction identity).  At step s the frontier is {v : x[v] == s};
// each node's WorkItems are the frontier vertices it owns, one CSR row
// [v, neighbours...] per vertex, rebuilt every step (rebuild_when, not a
// fixed cadence) from the current distances of the node's own block
// (RebuildReads::kOwnBlock).  The compute body pushes x[v] + 1 to every
// neighbour under Reduce::kMin; owners keep the minimum.  Termination is the
// DSM-published convergence flag: the loop ends at the first step whose
// next frontier is empty on every node — which also makes the steps AFTER
// a component is exhausted (isolated tail, fixed-step runs) the
// all-empty-frontier stress case of the WorkItems contract.
#pragma once

#include <span>
#include <vector>

#include "src/apps/graph/graph_common.hpp"

namespace sdsm::apps::bfs {

using graph::Params;

/// Sequential reference: final distances; `steps_run` (when non-null)
/// receives the number of steps executed (= the kernel's
/// KernelResult::steps_run).
std::vector<double> seq_distances(const Params& p,
                                  std::int64_t* steps_run = nullptr);

/// Sequential reference run (timing + checksum).
AppRunResult run_seq(const Params& p);

/// The BFS kernel.  Stateful (per-node level counters advance at every
/// rebuild): build a fresh spec per run.
api::KernelSpec<double> make_kernel(const Params& p);

/// Backend defaults: one element per vertex fits a replicated translation
/// table, sparing the inspector lookup traffic.
api::BackendOptions default_options();

api::KernelResult run(api::Backend backend, const Params& p,
                      const api::BackendOptions& options = default_options());

}  // namespace sdsm::apps::bfs
