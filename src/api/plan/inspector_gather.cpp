#include "src/api/plan/inspector_gather.hpp"

#include <algorithm>

#include "src/chaos/executor.hpp"
#include "src/chaos/inspector.hpp"
#include "src/common/buffer.hpp"
#include "src/common/vec.hpp"

namespace sdsm::api::plan {

std::shared_ptr<const chaos::TranslationTable> table_for(
    const std::vector<part::Range>& owner_range, chaos::TableKind kind,
    RunSession* session) {
  // Owner map and translation table (remapping: owner-contiguous offsets,
  // which for a contiguous partition makes local offset = global - begin).
  // On the serving path the table is itself a cached artifact: built once
  // per (graph, kernel) on the host thread (before node fan-out, so
  // publishing it back needs no synchronization) and reused on repeats.
  if (session != nullptr && session->table) return session->table;
  const auto nprocs = static_cast<std::uint32_t>(owner_range.size());
  std::vector<NodeId> owner(static_cast<std::size_t>(owner_range.back().end));
  for (NodeId q = 0; q < nprocs; ++q) {
    std::fill(owner.begin() + owner_range[q].begin,
              owner.begin() + owner_range[q].end, q);
  }
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(owner, nprocs, kind));
  if (session != nullptr) session->table = table;
  return table;
}

template <typename T>
InspectorGather<T>::InspectorGather(const KernelSpec<T>& spec,
                                    const chaos::TranslationTable& table,
                                    RunSession* session,
                                    chaos::ExchangeNode& exch,
                                    IrregularNode& node,
                                    const net::NetStats& net,
                                    ReadState read_state, Publish publish)
    : spec_(spec),
      table_(table),
      session_(session),
      exch_(exch),
      node_(node),
      net_(net),
      read_state_(std::move(read_state)),
      publish_(std::move(publish)),
      local_n_(static_cast<std::size_t>(spec.owner_range[exch.id()].size())) {
  const part::Range mine = spec.owner_range[exch.id()];
  x_all_.assign(spec.initial_state.begin() + mine.begin,
                spec.initial_state.begin() + mine.end);
}

template <typename T>
std::vector<std::vector<std::uint8_t>> InspectorGather<T>::allgather(
    const std::vector<std::uint8_t>& mine) {
  std::vector<std::vector<std::uint8_t>> out(exch_.num_nodes());
  for (NodeId q = 0; q < out.size(); ++q) {
    if (q != exch_.id()) out[q] = mine;
  }
  return exch_.all_to_all(std::move(out));
}

template <typename T>
void InspectorGather<T>::allgather_state(std::span<T> all) {
  // CHAOS has no shared memory: each owner sends its block to every peer
  // (the rebuild communication the DSM performs via paging/Validate).
  const NodeId me = exch_.id();
  Writer w;
  w.put_span<T>(owned());
  const auto in = allgather(w.bytes());
  for (NodeId q = 0; q < exch_.num_nodes(); ++q) {
    const auto dst = all.begin() + spec_.owner_range[q].begin;
    if (q == me) {
      std::copy(x_all_.begin(), x_all_.begin() + local_n_, dst);
    } else {
      Reader r(in[q]);
      const auto block = r.template get_vector<T>();
      std::copy(block.begin(), block.end(), dst);
    }
  }
}

template <typename T>
void InspectorGather<T>::fresh_rebuild(std::int64_t ordinal) {
  std::span<const T> view{};
  if (spec_.rebuild_reads != RebuildReads::kNothing) {
    all_state_.resize(static_cast<std::size_t>(spec_.num_elements));
    if (spec_.rebuild_reads == RebuildReads::kOwnBlock) {
      // The owned block is local (x_all_ and, on the hybrid, the DSM slice
      // never differ), so nothing crosses the fabric.
      std::copy(x_all_.begin(), x_all_.begin() + local_n_,
                all_state_.begin() + spec_.owner_range[exch_.id()].begin);
    } else if (read_state_) {
      read_state_(all_state_);
    } else {
      allgather_state(all_state_);
    }
    view = all_state_;
  }

  WorkItems items = spec_.build_items(node_, view);
  // Same CSR + capacity contract the page-protocol path enforces: a spec
  // must not pass on one backend and abort on another.
  const ItemsShape shape = spec_.require_valid_items(items);
  account.refs = shape.num_refs;
  account.max_row = shape.max_row;

  // Inspector: schedule + localization from the flattened row references —
  // rows of any length land in the same duplicate elimination, translation
  // lookups, and ghost-slot assignment, so variable-arity rows localize
  // exactly like fixed-arity ones.
  chaos::InspectorStats istats;
  sched_ = std::make_shared<const chaos::Schedule>(
      chaos::build_schedule(exch_, items.refs, table_, &istats));
  inspector_seconds += istats.seconds;
  ++rebuilds;
  localized_ =
      chaos::localize_references(exch_.id(), items.refs, table_, *sched_);
  // Copy: payload and offsets are moved below.
  record_rebuild(session_, exch_.id(), ordinal, [&] {
    return CachedRebuild{items, shape, sched_, localized_};
  });
  payload_ = std::move(items.payload);
  row_offsets_ = std::move(items.row_offsets);
}

template <typename T>
void InspectorGather<T>::rebuild(int /*global_step*/) {
  // This node's rebuild ordinal: the schedule-cache index for both the
  // replay and record paths.  The cache is committed whole (every node's
  // trace for an ordinal, or none), so hit/miss decisions are uniform
  // across nodes and the collective state read inside fresh_rebuild can
  // never be entered by only some of them.
  const NodeId me = exch_.id();
  const std::int64_t ordinal = ordinals_++;
  const CachedRebuild* cached = replay_rebuild(session_, me, ordinal);
  // Structure-traffic attribution: this node's sends during its rebuild
  // (state read + inspector exchange).  Only the node's own compute thread
  // bumps its send counters, so the delta is race-free; only timed
  // rebuilds accumulate, matching the message window of the result.
  const net::Traffic sent0 = net_.node_traffic(me);

  if (cached != nullptr) {
    account.refs = cached->shape.num_refs;
    account.max_row = cached->shape.max_row;
    payload_ = cached->items.payload;
    row_offsets_ = cached->items.row_offsets;
    sched_ = cached->chaos_schedule;
    localized_ = cached->chaos_localized;
  } else {
    fresh_rebuild(ordinal);
  }
  const std::size_t with_ghosts =
      local_n_ + static_cast<std::size_t>(sched_->num_ghosts);
  x_all_.resize(with_ghosts);
  f_all_.assign(with_ghosts, spec_.f_identity);
  if (session_ != nullptr && timed) {
    const net::Traffic sent = net_.node_traffic(me) - sent0;
    session_->structure_messages.fetch_add(sent.messages,
                                           std::memory_order_relaxed);
    session_->structure_bytes.fetch_add(sent.bytes, std::memory_order_relaxed);
  }
}

template <typename T>
void InspectorGather<T>::execute_step(int /*global_step*/) {
  const auto ghosts = static_cast<std::size_t>(sched_->num_ghosts);

  // Executor: gather remote state, compute, scatter contributions.
  // Accumulators (owned and ghost) seed with the reduction identity so
  // untouched elements — all of them, on an empty frontier — contribute
  // nothing under either operator.
  chaos::gather<T>(exch_, *sched_, owned(),
                   std::span<T>(x_all_.data() + local_n_, ghosts));
  std::fill(f_all_.begin(), f_all_.end(), spec_.f_identity);
  KernelCtx<T> ctx;
  ctx.row_offsets = row_offsets_;
  ctx.refs = localized_;
  ctx.payload = payload_;
  ctx.x = x_all_;
  ctx.f = f_all_;
  spec_.compute(node_, ctx);
  chaos::scatter<T>(exch_, *sched_, std::span<T>(f_all_.data(), local_n_),
                    std::span<const T>(f_all_.data() + local_n_, ghosts),
                    [this](T a, T b) { return spec_.combine(a, b); });

  if (spec_.update) {
    spec_.update(std::span<T>(x_all_.data(), local_n_),
                 std::span<const T>(f_all_.data(), local_n_));
    if (publish_) publish_(owned());
  }
}

template <typename T>
bool InspectorGather<T>::finish_step(int /*global_step*/,
                                     bool /*last_in_section*/) {
  // Convergence: the published flag is an allgather of one verdict byte
  // per node — every pair exchanges (even when the local frontier was
  // empty), so all nodes reach the identical decision with no side
  // channel.
  bool all_done = false;
  if (spec_.converged) {
    const bool mine_done = spec_.converged(node_, owned());
    const auto in = allgather({static_cast<std::uint8_t>(mine_done ? 1 : 0)});
    all_done = mine_done;
    for (NodeId q = 0; q < exch_.num_nodes(); ++q) {
      if (q != exch_.id()) {
        all_done = all_done && !in[q].empty() && in[q][0] != 0;
      }
    }
  }
  node_.barrier();
  return all_done;
}

// TmkBackend and ChaosBackend expose exactly these element types.
template class InspectorGather<double>;
template class InspectorGather<double3>;

}  // namespace sdsm::api::plan
