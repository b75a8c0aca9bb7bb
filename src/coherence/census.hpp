// Write census for the adaptive coherence engine: the per-page, per-writer
// score table the policy engine classifies from.  It is folded exclusively
// from interval write notices — data every node already receives at each
// barrier — using integer arithmetic only, so all nodes reach an identical
// census (and therefore identical decisions) with zero extra coordination.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.hpp"

namespace sdsm::coherence {

/// Deterministic per-page write census.  Scores are encoded-diff byte
/// counts decayed by one shift per epoch; the decay is carried lazily in
/// `last_write` (a score is the value as of that epoch).  Folds for one
/// (page, writer) always happen in the same epoch on every node, and
/// within an epoch integer additions commute, so fold order cannot make
/// two nodes disagree.
class WriteCensus {
 public:
  struct WriterScore {
    NodeId node = 0;
    std::uint64_t score = 0;       ///< decayed bytes as of `last_write`
    std::uint32_t streak = 0;      ///< consecutive epochs with a write
    std::uint32_t last_write = 0;  ///< epoch of the most recent fold
  };
  struct Entry {
    std::vector<WriterScore> writers;
  };

  /// Records `bytes` of diff written to `page` by `writer` during `epoch`.
  void fold(PageId page, NodeId writer, std::uint32_t bytes,
            std::uint32_t epoch);

  /// Drops writers whose score has decayed to zero as of `epoch`, then
  /// drops pages with no writers left.  Called once per policy tick so
  /// the census stays proportional to the live working set.
  void prune(std::uint32_t epoch);

  const Entry* find(PageId page) const {
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<PageId, Entry>& pages() const { return pages_; }
  void clear() { pages_.clear(); }

 private:
  std::unordered_map<PageId, Entry> pages_;
};

}  // namespace sdsm::coherence
