// Barrier-time classification for the adaptive coherence engine.
//
// Every node runs an identical PolicyEngine over an identical WriteCensus
// (see heat.hpp for why the census cannot diverge), so the per-page
// directory — which pages are replicated or migrated, and who owns them —
// is agreed upon by construction, with no directory traffic.  Decisions
// take effect through two hooks in the core protocol:
//
//  - should_inline(page): the writer of a classified page embeds its
//    encoded diff directly in the write notice, which already travels
//    with the barrier messages.  Readers apply those inline diffs at
//    barrier release instead of faulting and fetching.
//
//  - tick(): advances the epoch once per barrier, reclassifies, and
//    reports pages whose ownership just moved to the calling node so it
//    can issue the (counted) ownership-transfer fetch and serve future
//    readers as the page's home.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/coherence/coherence.hpp"
#include "src/coherence/heat.hpp"
#include "src/common/types.hpp"

namespace sdsm::coherence {

enum class PageClass : std::uint8_t {
  kNone = 0,        ///< default invalidate+fetch protocol
  kReplicated = 1,  ///< sole sustained writer pushes updates to readers
  kMigrated = 2,    ///< multi-writer page homed at its dominant writer
};

class PolicyEngine {
 public:
  explicit PolicyEngine(NodeId self) : self_(self) {}

  std::uint32_t epoch() const { return epoch_; }

  /// Folds one write notice into the census (own notices at interval
  /// close, foreign notices as their metas are first applied).
  void fold_write(PageId page, NodeId writer, std::uint32_t bytes) {
    census_.fold(page, writer, bytes, epoch_);
  }

  /// True when the current writer of `page` must inline its diff into the
  /// write notice.
  bool should_inline(PageId page) const {
    return dir_.find(page) != dir_.end();
  }

  PageClass page_class(PageId page) const {
    auto it = dir_.find(page);
    return it == dir_.end() ? PageClass::kNone : it->second.cls;
  }

  /// Owner of a classified page (the sole writer of a replicated page or
  /// the dominant writer of a migrated one).  kInvalidNode when none.
  NodeId owner(PageId page) const {
    auto it = dir_.find(page);
    return it == dir_.end() ? kInvalidNode : it->second.owner;
  }

  struct TickResult {
    std::uint32_t migrations = 0;     ///< migrated-page owner changes
    std::vector<PageId> newly_owned;  ///< pages this node just took over
  };

  /// Ends the epoch that the just-completed barrier closed and
  /// reclassifies every censused page.  Deterministic given the census.
  TickResult tick();

  void reset() {
    epoch_ = 0;
    census_.clear();
    dir_.clear();
  }

  static constexpr NodeId kInvalidNode = ~NodeId{0};

 private:
  struct DirEntry {
    PageClass cls = PageClass::kNone;
    NodeId owner = kInvalidNode;
  };

  NodeId self_;
  std::uint32_t epoch_ = 0;
  WriteCensus census_;
  std::unordered_map<PageId, DirEntry> dir_;
};

}  // namespace sdsm::coherence
