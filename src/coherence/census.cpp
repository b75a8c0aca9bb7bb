#include "src/coherence/census.hpp"

#include <algorithm>

namespace sdsm::coherence {

namespace {

/// A score `elapsed` epochs after it was last materialized (halving per
/// epoch).
constexpr std::uint64_t decayed64(std::uint64_t score, std::uint32_t elapsed) {
  return elapsed >= 64 ? 0 : score >> elapsed;
}

}  // namespace

void WriteCensus::fold(PageId page, NodeId writer, std::uint32_t bytes,
                       std::uint32_t epoch) {
  Entry& e = pages_[page];
  auto it = std::find_if(e.writers.begin(), e.writers.end(),
                         [&](const WriterScore& w) { return w.node == writer; });
  if (it == e.writers.end()) {
    e.writers.push_back(WriterScore{writer, bytes, 1, epoch});
    return;
  }
  WriterScore& w = *it;
  if (epoch == w.last_write) {
    // Second interval of the same epoch (a GC inner round): same-epoch
    // additions commute, so cross-node fold order is irrelevant.
    w.score += bytes;
    return;
  }
  w.streak = (epoch == w.last_write + 1) ? w.streak + 1 : 1;
  w.score = decayed64(w.score, epoch - w.last_write) + bytes;
  w.last_write = epoch;
}

void WriteCensus::prune(std::uint32_t epoch) {
  for (auto it = pages_.begin(); it != pages_.end();) {
    auto& writers = it->second.writers;
    writers.erase(std::remove_if(writers.begin(), writers.end(),
                                 [&](const WriterScore& w) {
                                   return decayed64(w.score,
                                                    epoch - w.last_write) == 0;
                                 }),
                  writers.end());
    it = writers.empty() ? pages_.erase(it) : std::next(it);
  }
}

}  // namespace sdsm::coherence
