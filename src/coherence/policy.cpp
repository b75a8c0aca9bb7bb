#include "src/coherence/policy.hpp"

#include <iterator>

namespace sdsm::coherence {

void PolicyEngine::tick() {
  ++epoch_;
  census_.prune(epoch_);

  // A replicated page stays replicated while its census holds exactly one
  // writer, even through epochs where that writer does not write.  It
  // demotes silently once a second writer appears or the score decays out
  // of the census: the next reader falls back to invalidate+fetch.
  for (auto it = replicated_.begin(); it != replicated_.end();) {
    const WriteCensus::Entry* e = census_.find(*it);
    it = e == nullptr || e->writers.size() != 1 ? replicated_.erase(it)
                                                : std::next(it);
  }
  // A sole writer's page replicates once the streak proves it is not a
  // one-shot write.
  for (const auto& [page, entry] : census_.pages()) {
    if (entry.writers.size() == 1 &&
        entry.writers.front().streak >= kReplEpochs) {
      replicated_.insert(page);
    }
  }
}

}  // namespace sdsm::coherence
