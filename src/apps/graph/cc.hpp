// Connected components by frontier-driven min-label propagation, with a
// converged-early-exit.
//
// State x is the label array (initially x[v] = v).  At step s the frontier
// is every vertex whose label changed during step s-1 (step 0: all
// vertices); frontier vertices push their label to their neighbours under
// Reduce::kMin and owners keep the minimum, so each component converges to
// its minimum vertex id.  The frontier needs the previous labels, which
// each node stashes at the rebuild — the structure is rebuilt every step
// from the current labels of the node's own block (rebuild_when +
// RebuildReads::kOwnBlock), shrinking as components settle.  Termination
// is data-dependent: the DSM-published convergence flag ends the loop at
// the first step in which no label changed anywhere, with num_steps only
// a safety cap.
#pragma once

#include <span>
#include <vector>

#include "src/apps/graph/graph_common.hpp"

namespace sdsm::apps::cc {

using graph::Params;

/// Sequential reference: final labels (per-component minimum vertex id);
/// `steps_run` (when non-null) receives the executed step count.
std::vector<double> seq_labels(const Params& p,
                               std::int64_t* steps_run = nullptr);

/// Sequential reference run (timing + checksum).
AppRunResult run_seq(const Params& p);

/// The label-propagation kernel.  Stateful (per-node previous-label
/// stashes advance at every rebuild): build a fresh spec per run.
api::KernelSpec<double> make_kernel(const Params& p);

/// Backend defaults: replicated translation table, as for the other
/// one-element-per-vertex graph workloads.
api::BackendOptions default_options();

api::KernelResult run(api::Backend backend, const Params& p,
                      const api::BackendOptions& options = default_options());

}  // namespace sdsm::apps::cc
