// Barrier-time classification for the adaptive coherence engine.
//
// Every node runs an identical PolicyEngine over an identical WriteCensus
// (see census.hpp for why the census cannot diverge), so the directory —
// the set of replicated pages — is agreed upon by construction, with no
// directory traffic.  Decisions take effect through two hooks in the core
// protocol:
//
//  - should_inline(page): the writer of a replicated page embeds its
//    encoded diff directly in the write notice, which already travels
//    with the barrier messages.  Readers apply those inline diffs at
//    barrier release instead of faulting and fetching.
//
//  - tick(): advances the epoch once per barrier and reclassifies.
//
// A page with more than one writer in the census is never classified: it
// stays on the lazy invalidate+fetch protocol, where each reader fetches
// the diffs of the pages it actually touches.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "src/coherence/census.hpp"
#include "src/coherence/coherence.hpp"
#include "src/common/types.hpp"

namespace sdsm::coherence {

class PolicyEngine {
 public:
  std::uint32_t epoch() const { return epoch_; }

  /// Folds one write notice into the census (own notices at interval
  /// close, foreign notices as their metas are first applied).
  void fold_write(PageId page, NodeId writer, std::uint32_t bytes) {
    census_.fold(page, writer, bytes, epoch_);
  }

  /// True when `page` is replicated: its writer must inline its diff into
  /// the write notice.
  bool should_inline(PageId page) const {
    return replicated_.count(page) != 0;
  }

  /// Ends the epoch that the just-completed barrier closed and
  /// reclassifies every censused page.  Deterministic given the census.
  void tick();

  void reset() {
    epoch_ = 0;
    census_.clear();
    replicated_.clear();
  }

 private:
  std::uint32_t epoch_ = 0;
  WriteCensus census_;
  std::unordered_set<PageId> replicated_;
};

}  // namespace sdsm::coherence
