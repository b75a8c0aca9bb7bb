// Runtime-reuse hooks connecting the backends to the serving layer
// (src/serve/): a RunSession lets a long-lived engine observe and replay
// the per-rebuild artifacts of a kernel execution.
//
// The cacheable artifact of an irregular run is what the paper's
// inspector produces: the item list (CSR references) plus, on CHAOS, the
// communication schedule and localized references derived from it, and
// the translation table shared by all of a job's nodes.  A backend given
// a RunSession consults `lookup` before rebuilding — a hit replays the
// cached artifact executor-only — and offers every fresh build to `store`.
// Without a session (one-shot runs) the backends behave exactly as
// before.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/api/kernel.hpp"
#include "src/chaos/schedule.hpp"
#include "src/chaos/translation_table.hpp"

namespace sdsm::api {

/// Everything one (node, rebuild-ordinal) pair produced that a repeat run
/// can replay instead of recomputing: the built items and shape always;
/// the inspector outputs additionally on the CHAOS backend.
struct CachedRebuild {
  WorkItems items;
  ItemsShape shape;

  // CHAOS-only (null/empty on the Tmk backends).
  std::shared_ptr<const chaos::Schedule> chaos_schedule;
  std::vector<std::int32_t> chaos_localized;
};

/// Per-job context a serving engine threads through a backend run.
///
/// `lookup(node, ordinal)` returns the cached artifact for the node's
/// `ordinal`-th rebuild, or nullptr to force a fresh build (cache miss, or
/// the trace is shorter than this run needs).  `store(node, ordinal,
/// artifact)` offers a fresh build for caching; the serving layer stages
/// these per node and commits them only after the job succeeds.  Either
/// function may be null (hit-only or record-only sessions).
///
/// The counters are bumped from node compute threads; `fresh_builds` and
/// `cached_builds` count per-node rebuild events (divide by nprocs for
/// the per-job inspector-run count).  `structure_*` accumulates the
/// fabric traffic attributable to structure maintenance during *timed*
/// steps — allgather + inspector exchange on CHAOS — measured by the
/// backend via per-node NetStats send deltas around the rebuild section
/// (a node's send counters are only bumped by its own compute thread, so
/// the delta is race-free).
struct RunSession {
  std::function<const CachedRebuild*(NodeId node, std::int64_t ordinal)>
      lookup;
  std::function<void(NodeId node, std::int64_t ordinal, CachedRebuild&&)>
      store;

  /// CHAOS translation table reuse: when set, the backend uses it instead
  /// of rebuilding; when unset, the backend publishes the table it built
  /// here (before node fan-out, so no synchronization is needed).
  std::shared_ptr<const chaos::TranslationTable> table;

  std::atomic<std::uint64_t> fresh_builds{0};
  std::atomic<std::uint64_t> cached_builds{0};
  std::atomic<std::uint64_t> structure_messages{0};
  std::atomic<std::uint64_t> structure_bytes{0};
};

/// The session's artifact for `node`'s `ordinal`-th rebuild, or nullptr
/// (no session, no lookup, or a miss) to build fresh.  A hit counts as a
/// cached build.
inline const CachedRebuild* replay_rebuild(RunSession* session, NodeId node,
                                           std::int64_t ordinal) {
  if (session == nullptr || !session->lookup) return nullptr;
  const CachedRebuild* hit = session->lookup(node, ordinal);
  if (hit != nullptr) {
    session->cached_builds.fetch_add(1, std::memory_order_relaxed);
  }
  return hit;
}

/// Counts a fresh build and offers it to the session's store; `make()`
/// builds the artifact only when a store will take it.
template <typename Make>
void record_rebuild(RunSession* session, NodeId node, std::int64_t ordinal,
                    Make&& make) {
  if (session == nullptr) return;
  session->fresh_builds.fetch_add(1, std::memory_order_relaxed);
  if (session->store) session->store(node, ordinal, make());
}

}  // namespace sdsm::api
