// One copy of the checksum fold.  (Protocol counters fold through
// DsmStats::Snapshot's operator+=.)
//
// Three call sites used to carry their own: the two backend monoliths
// folded per-node partials into a KernelResult, and the multi-process
// launcher folded per-worker KernelResults into a job-level one.  The
// arithmetic is part of the bit-exactness contract — checksums are summed
// in node order, so a process-mode aggregate is bit-identical to a
// threaded run's — which is exactly the kind of invariant that should not
// exist in triplicate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/api/kernel.hpp"

namespace sdsm::api::plan {

/// One node's contribution to a KernelResult.
struct NodeAccount {
  double checksum = 0;
  std::uint64_t refs = 0;
  std::uint64_t max_row = 0;
};

/// Folds node accounts into `res`, in the order given: checksum summed
/// (node order — the summation order is part of the bit-exactness
/// contract), refs summed, max_row maxed.  Adds to whatever `res` already
/// holds, so process-mode callers can fold worker by worker.
inline void fold_accounts(KernelResult& res,
                          std::span<const NodeAccount> accounts) {
  for (const NodeAccount& a : accounts) {
    res.checksum += a.checksum;
    res.refs += a.refs;
    res.max_row = std::max(res.max_row, a.max_row);
  }
}

}  // namespace sdsm::api::plan
