#include "src/coherence/policy.hpp"

#include <algorithm>

namespace sdsm::coherence {

namespace {

std::uint64_t score_at(const WriteCensus::WriterScore& w, std::uint32_t epoch) {
  return WriteCensus::decayed64(w.score, epoch - w.last_write);
}

}  // namespace

PolicyEngine::TickResult PolicyEngine::tick() {
  ++epoch_;
  census_.prune(epoch_);
  TickResult out;

  // Pages whose writers all decayed away demote silently: the next reader
  // falls back to the plain invalidate+fetch path.
  for (auto it = dir_.begin(); it != dir_.end();) {
    it = census_.find(it->first) == nullptr ? dir_.erase(it) : std::next(it);
  }

  for (const auto& [page, entry] : census_.pages()) {
    const auto& ws = entry.writers;  // non-empty and score > 0 after prune
    const auto prev = dir_.find(page);
    DirEntry next;

    if (ws.size() == 1) {
      // Sole writer: replicate once the streak proves the page is not a
      // one-shot write.  An already-classified page stays with its
      // surviving writer until the score decays out of the census — that
      // keeps a replicated page replicated across epochs where the owner
      // happens not to write.
      const WriteCensus::WriterScore& w = ws.front();
      if (w.streak >= kReplEpochs || prev != dir_.end()) {
        next = DirEntry{PageClass::kReplicated, w.node};
      }
    } else {
      // Multi-writer: home the page at its dominant writer.  The
      // incumbent keeps the page unless a challenger clears the
      // hysteresis ratio, so writers that alternate epochs cannot
      // ping-pong ownership.
      const WriteCensus::WriterScore* best = &ws.front();
      std::uint64_t best_score = score_at(*best, epoch_);
      for (const WriteCensus::WriterScore& w : ws) {
        const std::uint64_t s = score_at(w, epoch_);
        if (s > best_score || (s == best_score && w.node < best->node)) {
          best = &w;
          best_score = s;
        }
      }
      NodeId owner = best->node;
      if (prev != dir_.end() && prev->second.cls == PageClass::kMigrated) {
        const NodeId inc = prev->second.owner;
        const auto inc_it =
            std::find_if(ws.begin(), ws.end(),
                         [&](const WriteCensus::WriterScore& w) {
                           return w.node == inc;
                         });
        if (inc_it != ws.end() &&
            best_score * kMigrateDen <=
                score_at(*inc_it, epoch_) * kMigrateNum) {
          owner = inc;
        }
      }
      next = DirEntry{PageClass::kMigrated, owner};
    }

    if (next.cls == PageClass::kNone) {
      if (prev != dir_.end()) dir_.erase(prev);
      continue;
    }
    const bool owner_moved =
        prev == dir_.end() || prev->second.owner != next.owner;
    if (next.cls == PageClass::kMigrated && owner_moved) {
      ++out.migrations;
      if (next.owner == self_) out.newly_owned.push_back(page);
    }
    dir_[page] = next;
  }

  // The census map iterates in an unspecified order; sort so the
  // ownership-transfer fetch is identical on every run.
  std::sort(out.newly_owned.begin(), out.newly_owned.end());
  return out;
}

}  // namespace sdsm::coherence
