// InspectorGather: the one copy of the inspector/executor strategy.
//
// One node's inspector/executor strategy, written against a
// chaos::ExchangeNode so it runs unchanged on the CHAOS fabric (run_msg,
// state and indirection both under the inspector) and over a DSM node's
// app-data plane (run_hybrid, the indirection only).  It owns the per-node state
// and every phase:
//
//  - rebuild: the structure builder, then the inspector (build_schedule +
//    localize_references) — or a replay of both from the session's
//    schedule cache — with the rebuild's fabric traffic attributed to the
//    session during timed steps;
//  - step: gather ghost state, compute over localized references, scatter
//    ghost contributions to their owners, owner update of x_all;
//  - epilogue: the convergence verdict allgather and the step barrier.
//
// The drivers differ only in two hooks:
//
//  - ReadState, how a whole-state (RebuildReads::kAll) rebuild sees the
//    global state.  Unset (CHAOS), the owned blocks are allgathered over
//    the exchange.  The hybrid reads every owner's page-aligned DSM slice
//    with one aggregated Validate instead.  An own-block rebuild uses
//    neither: its block is already local.
//  - Publish, what follows the owner update.  Unset (CHAOS), nothing.  The
//    hybrid copies the owned block into its DSM slice under READ&WRITE_ALL,
//    so x_all's owned block and the slice never differ.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/api/kernel.hpp"
#include "src/api/plan/step_driver.hpp"
#include "src/api/reuse.hpp"
#include "src/chaos/exchange.hpp"
#include "src/chaos/schedule.hpp"
#include "src/chaos/translation_table.hpp"
#include "src/net/netstats.hpp"

namespace sdsm::api::plan {

/// The kernel-facing IrregularNode over a fabric's node handle
/// (core::DsmNode or chaos::ChaosNode).
template <typename FabricNode>
class NodeHandle final : public IrregularNode {
 public:
  explicit NodeHandle(FabricNode& n) : n_(n) {}
  NodeId id() const override { return n_.id(); }
  std::uint32_t num_nodes() const override { return n_.num_nodes(); }
  void barrier() override { n_.barrier(); }

 private:
  FabricNode& n_;
};

/// Builds (or reuses, via the session) the translation table for a
/// contiguous owner partition.
std::shared_ptr<const chaos::TranslationTable> table_for(
    const std::vector<part::Range>& owner_range, chaos::TableKind kind,
    RunSession* session);

template <typename T>
class InspectorGather : public NodeTally {
 public:
  /// Fills `all` (num_elements long) with the current global state.
  using ReadState = std::function<void(std::span<T> all)>;
  /// Publishes the owned block after each owner update.
  using Publish = std::function<void(std::span<const T> owned)>;

  /// `net` is the fabric's statistics, read for structure-traffic
  /// attribution.  x_all's owned block starts from spec.initial_state.
  InspectorGather(const KernelSpec<T>& spec,
                  const chaos::TranslationTable& table, RunSession* session,
                  chaos::ExchangeNode& exch, IrregularNode& node,
                  const net::NetStats& net, ReadState read_state = {},
                  Publish publish = {});

  void rebuild(int global_step);
  void execute_step(int global_step);
  bool finish_step(int global_step, bool last_in_section);

  /// Records the checksum of the owned block into `account`.
  void record_checksum() { account.checksum = spec_.checksum(owned()); }

 private:
  std::span<const T> owned() const { return {x_all_.data(), local_n_}; }
  void fresh_rebuild(std::int64_t ordinal);
  /// Sends `mine` to every peer; returns every peer's payload.
  std::vector<std::vector<std::uint8_t>> allgather(
      const std::vector<std::uint8_t>& mine);
  void allgather_state(std::span<T> all);

  const KernelSpec<T>& spec_;
  const chaos::TranslationTable& table_;
  RunSession* session_;
  chaos::ExchangeNode& exch_;
  IrregularNode& node_;
  const net::NetStats& net_;
  ReadState read_state_;
  Publish publish_;
  const std::size_t local_n_;

  std::int64_t ordinals_ = 0;  ///< rebuild events, cache replays included
  std::vector<T> x_all_;       ///< owned block, ghost region appended
  std::vector<T> f_all_;       ///< accumulators (owned + ghost)
  std::vector<T> all_state_;   ///< global view for state-reading rebuilds
  std::shared_ptr<const chaos::Schedule> sched_;
  std::vector<std::int32_t> localized_;
  std::vector<std::int64_t> row_offsets_;
  std::vector<double> payload_;
};

}  // namespace sdsm::api::plan
