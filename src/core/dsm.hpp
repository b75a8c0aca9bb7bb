// The TreadMarks-style software DSM runtime: lazy release consistency with
// a multiple-writer protocol, plus the paper's Validate communication-
// aggregation extension for irregular accesses.
//
// Structure per simulated node:
//   - one PageRegion: the node's private view of the shared offset space,
//     protection-driven by the coherence protocol;
//   - one compute thread (supplied by the application via DsmRuntime::run),
//     which executes application code, takes page faults, and performs
//     acquires/releases;
//   - the node's request handlers (dispatch), which answer remote diff
//     requests and host this node's share of the lock/barrier managers,
//     standing in for TreadMarks' SIGIO request handler.  On the
//     in-process fabric without a wire model they run on the thread that
//     sends the request (net::Transport::serve_inline); every other
//     fabric queues requests for one service thread per node.
//
// Thread-safety contract: a node's page metadata is touched only by its
// compute thread (including inside SIGSEGV handlers) and, between run()
// calls, by the host thread, which grows it as the shared heap grows and
// clears it at reset_arena.  The interval table, diff store, and
// lock/barrier state are shared between the node's compute thread and
// whichever threads run its handlers, and guarded by meta_mu_; the app
// inbox is guarded by inbox_mu_.
//
// Deadlock freedom: a handler takes only its own node's meta_mu_ or
// inbox_mu_, sends only on reply ports, and never waits.  No caller holds
// a meta_mu_ or a channel lock when it sends on a service port
// (barrier_round, lock_release, post_fetch after plan_fetch, and
// complete_fetch's retry all release first), so a handler running on the
// sender's thread never waits on a lock its caller holds.  Messages from
// one sender are handled in its program order either way.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/coherence/coherence.hpp"
#include "src/coherence/policy.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/core/diff.hpp"
#include "src/core/interval.hpp"
#include "src/core/shmalloc.hpp"
#include "src/core/vector_clock.hpp"
#include "src/net/transport.hpp"
#include "src/rsd/regular_section.hpp"
#include "src/vm/fault_dispatcher.hpp"
#include "src/vm/page_region.hpp"

namespace sdsm::core {

struct DsmConfig {
  std::uint32_t num_nodes = 8;
  /// Address space each node reserves for the shared heap, and the heap's
  /// capacity.  Per-node page metadata covers only the allocated heap.
  std::size_t region_bytes = 64u << 20;
  /// kThreads (default): this runtime hosts every node in-process.
  /// kProcesses: this runtime hosts exactly `local_node`; the other nodes
  /// live in peer worker processes reached through an injected
  /// cross-process transport (see the DsmRuntime transport ctor), and
  /// page faults resolve by fetching diffs over the wire from them.
  DeployMode mode = DeployMode::kThreads;
  /// The one node this process hosts (kProcesses only).
  NodeId local_node = 0;
  /// Fixed mapping address for the hosted node's region
  /// (MAP_FIXED_NOREPLACE; kProcesses only — the rendezvous-agreed base
  /// that keeps global addresses meaningful across the workers).  nullptr
  /// lets the kernel choose, as in threads mode.
  void* arena_base = nullptr;
  /// Fabric selection: in-process channels (wire cost simulated by `wire`)
  /// or real TCP sockets over localhost (wire cost measured, `wire`
  /// ignored).
  net::TransportKind transport = net::TransportKind::kInProc;
  net::WireModel wire{};
  /// Diff-store garbage collection: when a node's stored diffs exceed this
  /// many bytes it requests a GC at the next barrier.  The barrier then
  /// runs a flush round — every node fetches all pending diffs — after
  /// which all nodes discard their diff stores and interval logs
  /// (TreadMarks GC).  0 disables collection.
  std::size_t gc_threshold_bytes = 256u << 20;
  /// Honour WRITE_ALL / READ&WRITE_ALL access descriptors (twin elision +
  /// whole-page shipping).  Disabled by the ablation bench to measure the
  /// "multiple overlapping diffs" effect the paper describes for reductions.
  bool write_all_enabled = true;
  /// Adaptive coherence (src/coherence/): census-driven replicate / ghost
  /// decisions evaluated at barrier rendezvous.  kStatic leaves the
  /// protocol — and its wire traffic — byte-identical to the baseline.
  /// Adaptive runs are barrier-only: lock_acquire rejects the combination.
  coherence::CoherencePolicy coherence = coherence::CoherencePolicy::kStatic;
};

// ---------------------------------------------------------------------------
// Protocol messages (payload codecs live in dsm.cpp / sync.cpp).
// ---------------------------------------------------------------------------

enum MsgType : std::uint32_t {
  kGetDiffs = 1,    ///< request stored diffs for a batch of (page, seqs)
  kDiffsReply,
  kLockAcquire,
  kLockGrant,
  kLockRelease,
  kBarrierArrive,
  kBarrierRelease,
  /// Application-plane payload between compute threads (hybrid execution:
  /// inspector exchanges and executor gather/scatter carried over the DSM
  /// fabric).  Routed by dispatch into the node's app inbox; moves no
  /// protocol state.  Counted like any data message.
  kAppData,
};

// ---------------------------------------------------------------------------
// Validate interface (Section 3.2 of the paper, Figure 3).
// ---------------------------------------------------------------------------

enum class Access : std::uint8_t {
  kRead,          ///< READ
  kWrite,         ///< WRITE
  kReadWrite,     ///< READ&WRITE
  kWriteAll,      ///< WRITE_ALL: every element of the section is written
  kReadWriteAll,  ///< READ&WRITE_ALL: reduction over the whole section
};

enum class DescType : std::uint8_t {
  kDirect,    ///< section describes the shared data itself
  kIndirect,  ///< section describes the indirection array
};

/// One access descriptor, as passed to Validate in Figure 3.
struct AccessDescriptor {
  DescType type = DescType::kDirect;
  Access access = Access::kRead;
  std::uint32_t schedule = 0;  ///< identifier of the cached page set

  /// Shared data array being accessed.
  GlobalAddr data_base = 0;
  std::size_t data_elem_size = 0;
  rsd::ArrayLayout data_layout;  ///< used by kDirect sections

  /// For kDirect: section of the data array.  For kIndirect: section of the
  /// indirection array whose *values* index the data array.
  rsd::RegularSection section;

  /// Indirection array (kIndirect only).  Elements must be std::int32_t.
  GlobalAddr ind_base = 0;
  rsd::ArrayLayout ind_layout;
};

// ---------------------------------------------------------------------------
// Per-page protocol state.
// ---------------------------------------------------------------------------

enum class PageState : std::uint8_t {
  kInvalid,    ///< PROT_NONE: unseen remote modifications pending
  kReadOnly,   ///< PROT_READ: valid copy
  kReadWrite,  ///< PROT_READ|WRITE: valid + locally modified (twinned)
};

/// A write notice that has invalidated the local copy but whose diff has not
/// been applied yet.
struct PendingNotice {
  IntervalId ival;
  bool whole_page = false;
  /// Encoded diff pushed by the writer of a coherence-classified page
  /// (adaptive only).  When every pending notice of a page carries one,
  /// the page is brought current at barrier release with no fetch.
  std::vector<std::uint8_t> inline_diff;
};

struct PageMeta {
  PageState state = PageState::kReadOnly;
  /// Current hardware protection.  Usually implied by `state`, except for
  /// watched indirection pages (write-protected while dirty).  Tracked so
  /// redundant mprotect calls — expensive process-wide operations — can be
  /// skipped and runs of pages changed with one syscall.
  vm::Prot prot = vm::Prot::kRead;
  bool dirty = false;
  bool write_all = false;  ///< dirty in whole-page mode (no twin)
  std::unique_ptr<std::byte[]> twin;
  /// Write notices learned but not yet applied to this copy.
  std::vector<PendingNotice> pending;
  /// Schedules watching this page for indirection-array changes.
  std::vector<std::uint32_t> watchers;
};

/// Dense per-creator interval log that supports discarding a prefix at GC:
/// entries cover seqs [base+1, base+v.size()], plus the metas that arrived
/// ahead of a gap.
///
/// A sender picks the metas a peer lacks against a lower bound on the
/// peer's knowledge, and a barrier exit raises every bound to the global
/// clock.  The peer's own compute thread records the barrier's metas only
/// when it wakes from the release, so a lock release pushed to that peer
/// (as the lock's home) in the meantime carries metas newer than its table.
/// They wait in `ahead` until the barrier's metas fill the gap.  Nothing
/// that reads them can need the gap itself: every node that sends a
/// request after the barrier already covers the global clock, and the
/// compute thread applies a meta only after recording it and every meta
/// before it, so get() reads dense entries only.
struct MetaLog {
  std::uint32_t base = 0;
  std::vector<IntervalMeta> v;
  std::map<std::uint32_t, IntervalMeta> ahead;

  const IntervalMeta& get(std::uint32_t seq) const {
    SDSM_ASSERT(seq > base && seq <= max_seq());
    return v[seq - base - 1];
  }
  std::uint32_t max_seq() const {
    return base + static_cast<std::uint32_t>(v.size());
  }
  void push(IntervalMeta m) { v.push_back(std::move(m)); }
  /// Records `m` once, in seq order, holding it in `ahead` while a gap
  /// precedes it.
  void insert(const IntervalMeta& m) {
    if (m.id.seq <= max_seq()) return;  // duplicate
    if (m.id.seq > max_seq() + 1) {
      ahead.try_emplace(m.id.seq, m);
      return;
    }
    push(m);
    while (!ahead.empty() && ahead.begin()->first <= max_seq() + 1) {
      auto first = ahead.extract(ahead.begin());
      if (first.key() == max_seq() + 1) push(std::move(first.mapped()));
    }
  }
  /// Discards entries with seq <= through (GC).  Entries beyond `through`
  /// are kept: a fast peer may already have raced past the GC rendezvous
  /// and pushed post-GC metas into this table through a handler.
  void drop_through(std::uint32_t through) {
    SDSM_ASSERT(through >= base && through <= max_seq());
    v.erase(v.begin(), v.begin() + (through - base));
    base = through;
  }
};

/// Cached page set of one Validate schedule (pages[sch] in Figure 3).
struct ScheduleState {
  bool valid = false;
  bool indirection_changed = false;
  std::vector<PageId> pages;
  /// Adaptive coherence: consecutive validate epochs the schedule stayed
  /// ready (no recompute).  At coherence::kGhostEpochs the schedule
  /// becomes a ghost zone: read-only validates skip its page scan
  /// entirely while the node holds no invalid pages.  Any indirection
  /// change demotes it through the normal recompute path.
  std::uint32_t epochs_stable = 0;
  bool ghost = false;
};

class DsmRuntime;

// ---------------------------------------------------------------------------
// DsmNode
// ---------------------------------------------------------------------------

class DsmNode {
 public:
  DsmNode(DsmRuntime& rt, NodeId id);
  ~DsmNode();

  DsmNode(const DsmNode&) = delete;
  DsmNode& operator=(const DsmNode&) = delete;

  NodeId id() const { return id_; }
  std::uint32_t num_nodes() const;
  std::size_t page_size() const { return region_.page_size(); }

  /// Translates a shared handle to this node's private mapping.
  template <typename T>
  T* ptr(const GlobalArray<T>& ga) {
    return reinterpret_cast<T*>(region_.base() + ga.addr);
  }
  std::byte* raw(GlobalAddr addr) { return region_.base() + addr; }

  // --- Synchronization (the TreadMarks primitives) ------------------------

  /// Global barrier over all nodes (centralized manager at node 0).
  /// Doubles as the GC rendezvous: arrivals piggyback a GC request when the
  /// local diff store is over threshold, and the release orders a global
  /// flush-and-drop round.
  void barrier();

  /// Control-plane rendezvous: returns once every node has entered the
  /// fence.  Unlike barrier(), it moves no protocol state — no interval is
  /// closed, no write notices travel — and its messages (net::kControlSync)
  /// are excluded from the message/byte accounting, so a run's counters are
  /// identical with and without it.  The process-mode harness uses it to cut
  /// a consistent statistics snapshot across workers: each worker snapshots
  /// its counters, enters the fence, and no worker can trigger remote
  /// service work for the next phase until all have passed.  (Threads mode
  /// never needs it: a single process snapshots all nodes after join, and
  /// calling it from a serial loop over local nodes would deadlock.)
  void quiesce_fence();

  /// Distributed lock; home is lock_id % num_nodes.
  void lock_acquire(LockId lock);
  void lock_release(LockId lock);

  // --- Validate (the paper's contribution, Figure 3) ----------------------

  /// Prefetches and pre-twins the pages named by the descriptors,
  /// aggregating all diff requests to the same node into one message.
  void validate(const std::vector<AccessDescriptor>& descs);

  /// Cross-step prefetch (prefetch past synchronization): posts the
  /// aggregated diff requests a later validate() of the same descriptors
  /// would post, without waiting for the replies.  Sound only when the
  /// descriptors' pages are *final* — no node will write them between this
  /// call and their first use — which holds at a barrier exit for data the
  /// deterministic round schedule fixed before the barrier.  The posted
  /// requests complete at first use: the next validate() naming any of the
  /// pages, a fault on one of them, or (as a safety net) the next
  /// synchronization operation, whichever comes first.  At most one
  /// prefetch is outstanding; posting another completes the previous one.
  /// Stale indirect descriptors (whose cached page set needs a
  /// Read_indices scan) are skipped — validate() handles them as usual —
  /// so the message/byte traffic of a run is identical with and without
  /// prefetching; only the wait moves.
  void post_validate_prefetch(const std::vector<AccessDescriptor>& descs);

  /// Completes the outstanding cross-step prefetch, if any, counting it as
  /// drained rather than consumed.  Called by DsmRuntime::run on each
  /// node's compute thread after the body returns: a data-dependent early
  /// exit (rebuild_when / a convergence flag ending the step loop between
  /// a barrier exit and the next validate) can leave a posted prefetch in
  /// flight, and its tickets must not outlive the run — the peers'
  /// handlers have already sent the replies (inline, before post
  /// returned), or their service threads still run, so the drain never
  /// blocks on new work.  Accounting invariant, asserted in tests:
  /// cross_prefetch_posts == cross_prefetch_consumes +
  /// cross_prefetch_drains.
  void drain_prefetch();

  // --- Application-data plane (hybrid execution) ---------------------------

  /// Sends an application payload to `dst`'s compute thread, outside the
  /// coherence protocol.  The hybrid backend's inspector/executor exchanges
  /// ride this plane so their traffic shares the run's fabric (and its
  /// accounting) with the page protocol.  Self-sends are not allowed.
  void send_app_data(NodeId dst, std::vector<std::uint8_t> payload);

  /// Blocks until an application payload arrives and returns (src, bytes)
  /// in arrival order.  Pairing and per-peer ordering discipline is the
  /// caller's (plan::DsmExchange hands it to chaos::ExchangeNode's stash).
  std::pair<NodeId, std::vector<std::uint8_t>> recv_app_data();

  // --- Introspection -------------------------------------------------------

  PageState page_state(PageId page) const {
    SDSM_REQUIRE_MSG(page < pages_.size(), "page outside the shared heap");
    return pages_[page].state;
  }
  const VectorClock& clock() const { return vc_; }
  /// Bytes of encoded diffs currently held (own + cached).  Thread-safe.
  std::size_t diff_store_bytes() {
    std::lock_guard<std::mutex> g(meta_mu_);
    return diff_store_bytes_;
  }
  DsmStats& stats();
  const DsmConfig& config() const;

 private:
  friend class DsmRuntime;

  // Fault path (runs inside the SIGSEGV handler on the compute thread).
  void handle_fault(void* addr, vm::FaultAccess access);

  // Demand fetch of a single invalid page (base TreadMarks behaviour).
  void fetch_one_page(PageId page);

  /// Fetch plan: which interval diffs are needed for each page, after the
  /// whole-page supersede rule, and from whom.  As in TreadMarks, a page's
  /// whole pending stack is requested from the *most recent modifier*: any
  /// node whose write happened-after an interval has applied — and cached —
  /// that interval's diff, so one request/response pair per dominant writer
  /// suffices (this is what makes base TreadMarks ship "multiple
  /// overlapping diffs" per request in the paper's reduction loops).
  /// Concurrent (incomparable) top intervals are requested from each of
  /// their creators.
  struct FetchItem {
    PageId page;
    std::vector<IntervalId> ivals;  ///< diffs to pull from this target
  };
  /// Groups needed diffs by target node: result[target] lists items.
  std::map<NodeId, std::vector<FetchItem>> plan_fetch(
      const std::vector<PageId>& pages);

  /// One in-flight aggregated diff fetch: the requests are on the wire,
  /// the pages are still kInvalid until complete_fetch applies the
  /// replies.  Between post and complete the compute thread may do any
  /// work that does not touch the named pages (Validate overlaps its
  /// descriptor bookkeeping and later fetch planning here).
  struct PendingFetch {
    std::vector<net::Ticket> tickets;
    std::vector<PageId> pages;  ///< sorted, deduplicated
    std::uint64_t plan_ns = 0;  ///< time spent planning/posting

    bool empty() const { return pages.empty(); }
    /// True when `page` is named by this in-flight fetch.
    bool covers(PageId page) const {
      return std::binary_search(pages.begin(), pages.end(), page);
    }
  };

  /// Split-phase fetch, phase 1: plans the aggregated requests (one
  /// kGetDiffs per target, see plan_fetch) and posts them all.  `pages`
  /// must be sorted, deduplicated, and kInvalid.
  PendingFetch post_fetch(std::vector<PageId> pages);
  /// Split-phase fetch, phase 2: waits for all replies (handling holder
  /// misses with a retry round), applies diffs in HB order, marks pages
  /// kReadOnly.
  void complete_fetch(PendingFetch pf);
  /// Encodes and posts one target's request batch.
  net::Ticket post_get_diffs(NodeId target, const std::vector<FetchItem>& items);

  /// Blocking wrapper: post_fetch + complete_fetch.
  void fetch_pages(const std::vector<PageId>& pages);

  /// Completes the outstanding cross-step prefetch, if any.  Called at
  /// first use (validate / fault) and from every acquire path, so a posted
  /// prefetch can never straddle a synchronization operation.
  void consume_prefetch();

  /// Creates a twin (or enters whole-page mode) and marks the page dirty.
  /// The caller must make the page writable afterwards (set_prot /
  /// set_prot_batch) — batched by Validate, immediate in the fault path.
  void pre_twin(PageId page, bool whole_page_mode);

  /// Protection setters that skip no-ops and (for the batch form) coalesce
  /// contiguous runs into single mprotect calls.
  void set_prot(PageId page, vm::Prot prot);
  void set_prot_batch(std::vector<PageId> pages, vm::Prot prot);

  /// Closes the current interval: encodes diffs of dirty pages, stores
  /// them, downgrades pages to kReadOnly, returns the interval meta
  /// (nullopt when nothing was written).
  std::optional<IntervalMeta> close_interval();

  /// Records foreign metas in the table (for later forwarding) and applies
  /// the write notices (invalidations) of every meta this compute thread
  /// has not applied yet.  Application is tracked by applied_vc_, which is
  /// independent of the table: a handler may have recorded a meta (e.g. as
  /// barrier manager) long before the compute thread acquires it.
  void process_metas(std::vector<IntervalMeta> metas);

  /// Metas from this node's table that `peer` may lack, given a lower bound
  /// on the peer's clock.  Caller holds meta_mu_.
  std::vector<IntervalMeta> metas_not_covered_locked(const VectorClock& bound);

  /// Inserts metas into the table, ignoring duplicates.  Caller holds
  /// meta_mu_.
  void insert_metas_locked(const std::vector<IntervalMeta>& metas);

  /// Returns all compute-thread protocol state to its post-construction
  /// default.  Part of DsmRuntime::reset_arena(); callable only when no
  /// compute thread is running and the fabric is quiescent.
  void reset_for_reuse();

  // Service side.
  /// The service thread's loop: recv + dispatch until kControlStop.
  void service_loop();
  /// Runs the handler for one service-port message, on the service thread
  /// or (inline fabric) on the sending thread.  Returns false for
  /// kControlStop, which moves no state.
  bool dispatch(net::Message& msg);
  void serve_get_diffs(const net::Message& msg);

  // Lock/barrier manager state lives in sync.cpp helpers.
  struct LockHome {
    bool held = false;
    NodeId holder = 0;
    VectorClock last_release_vc;
    struct Waiter {
      NodeId node;
      std::uint64_t request_id;
      VectorClock vc;
    };
    std::vector<Waiter> queue;
  };
  struct BarrierMgr {
    struct Arrival {
      NodeId node;
      std::uint64_t request_id;
      VectorClock vc;
    };
    std::vector<Arrival> arrivals;
    bool want_gc = false;
  };

  void barrier_round(bool allow_gc);
  /// Adaptive coherence: applies inline diffs deposited by process_metas
  /// for the given pages, validating them at barrier release with no
  /// fetch.  Pages whose pending stack is not fully inline are left for
  /// the normal fetch path.
  void eager_apply_inline(std::vector<PageId> pages);
  /// GC flush: fetches every page with pending write notices, emptying the
  /// pending sets so the diff stores can be dropped.
  void flush_all_pending();
  /// Drops diff store and interval logs (post-flush, all-nodes-synced).
  void gc_drop();

  void serve_lock_acquire(const net::Message& msg);
  void serve_lock_release(const net::Message& msg);
  void serve_barrier_arrive(const net::Message& msg);
  void serve_control_sync(const net::Message& msg);
  void grant_lock_locked(LockId lock, const LockHome::Waiter& to);

  // Validate internals (validate.cpp).
  std::vector<PageId> read_indices(const AccessDescriptor& desc);
  std::vector<PageId> direct_pages(const AccessDescriptor& desc) const;
  void watch_indirection_pages(const AccessDescriptor& desc,
                               std::uint32_t schedule);
  void notice_watched_page(PageId page);  ///< flags watching schedules

  DsmRuntime& rt_;
  const NodeId id_;
  vm::PageRegion region_;

  // Compute-thread-private protocol state.
  /// One entry per page of the shared heap; region pages above it have no
  /// metadata (see the thread-safety contract at the top of this file).
  std::vector<PageMeta> pages_;
  VectorClock vc_;
  /// Highest interval per creator whose write notices this compute thread
  /// has applied.  May run ahead of vc_ (a grant can carry extra metas) but
  /// never behind it.
  VectorClock applied_vc_;
  std::vector<PageId> dirty_pages_;
  std::unordered_map<std::uint32_t, ScheduleState> schedules_;
  /// The one outstanding cross-step prefetch (empty when none).
  PendingFetch prefetch_;
  /// Adaptive coherence (null under the static policy).  Compute-thread
  /// private: folds happen at interval close and meta application, the
  /// tick at barrier return — all on the compute thread.
  std::unique_ptr<coherence::PolicyEngine> policy_;
  /// Exact count of pages in PageState::kInvalid; lets ghost-zone
  /// validates prove "nothing pending anywhere" in O(1).
  std::uint32_t invalid_pages_ = 0;

  // Shared between the compute thread and this node's handlers.
  std::mutex meta_mu_;
  std::vector<MetaLog> table_;  // [creator]
  /// Diffs held by this node, keyed by (page, creator, seq): its own plus
  /// every remote diff it has applied (TreadMarks diff caching — the basis
  /// of most-recent-modifier fetching).
  std::unordered_map<std::uint64_t, std::vector<Diff>> diff_store_;
  std::size_t diff_store_bytes_ = 0;  ///< encoded bytes held in diff_store_
  std::vector<VectorClock> last_seen_vc_;  // lower bound on peers' knowledge
  std::map<LockId, LockHome> lock_homes_;
  BarrierMgr barrier_mgr_;
  /// quiesce_fence arrivals (node, request_id); manager side, node 0 only.
  std::vector<std::pair<NodeId, std::uint64_t>> fence_waiters_;

  /// Application-data inbox: kAppData payloads deposited by dispatch in
  /// arrival order, consumed by the compute thread.
  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> inbox_;

  /// Runs service_loop unless the fabric accepted dispatch inline.
  std::thread service_thread_;
};

// ---------------------------------------------------------------------------
// DsmRuntime
// ---------------------------------------------------------------------------

class DsmRuntime {
 public:
  /// Threads mode: hosts all num_nodes nodes in this process over a
  /// transport built from config (config.mode must be kThreads).
  explicit DsmRuntime(DsmConfig config);

  /// Process mode: hosts exactly config.local_node over the injected
  /// cross-process transport (config.mode must be kProcesses).  The
  /// transport's num_nodes spans the whole job; only the local node's
  /// service thread runs here, and the destructor stops only it.
  DsmRuntime(DsmConfig config, std::unique_ptr<net::Transport> transport);

  ~DsmRuntime();

  DsmRuntime(const DsmRuntime&) = delete;
  DsmRuntime& operator=(const DsmRuntime&) = delete;

  const DsmConfig& config() const { return config_; }
  std::uint32_t num_nodes() const { return config_.num_nodes; }

  /// The nodes hosted by this process: all of them in threads mode, one in
  /// process mode.  Aggregations over "every node" (run bodies, result
  /// assembly, arena reset) iterate these.
  const std::vector<NodeId>& local_ids() const { return local_ids_; }
  std::uint32_t num_local_nodes() const {
    return static_cast<std::uint32_t>(local_ids_.size());
  }
  NodeId first_local_node() const { return local_ids_.front(); }
  bool is_local(NodeId n) const { return nodes_[n] != nullptr; }

  /// Page size of every node's region (uniform; does not require any
  /// particular node to be hosted here).
  std::size_t page_size() const { return vm::system_page_size(); }

  /// Allocates a shared array visible to all nodes and grows every hosted
  /// node's page table to cover it.  Must not be called while run() is
  /// active.  Page-aligned unless packed is true.
  template <typename T>
  GlobalArray<T> alloc_global(std::size_t count, bool packed = false) {
    SDSM_REQUIRE_MSG(!running_, "alloc_global: run() is active");
    if (!packed) heap_.align_to_page();
    const GlobalAddr addr = heap_.alloc(count * sizeof(T), alignof(T));
    grow_page_tables();
    return GlobalArray<T>{addr, count};
  }

  /// Runs `body` on every locally hosted node's compute thread and joins.
  /// In process mode that is one thread; the peers run the same body in
  /// their own processes and meet this one at the protocol's barriers.
  void run(const std::function<void(DsmNode&)>& body);

  DsmNode& node(NodeId n) {
    SDSM_REQUIRE_MSG(nodes_[n] != nullptr,
                     "DsmRuntime::node: node not hosted by this process");
    return *nodes_[n];
  }
  net::Transport& network() { return *net_; }
  DsmStats& stats() { return stats_; }

  /// Total messages / payload bytes on the fabric (the paper's metrics).
  std::uint64_t total_messages() { return net_->stats().messages(); }
  double total_megabytes() { return net_->stats().megabytes(); }

  void reset_stats();

  /// Shared-heap bytes currently allocated.  Zero after reset_arena().
  std::size_t shared_bytes_used() const { return heap_.used(); }

  /// Returns the arena to its just-constructed state so the runtime can be
  /// reused for another independent kernel: frees every allocation, zeroes
  /// and re-protects every node's region (punching holes so physical pages
  /// are released), and clears all per-node protocol state — page tables,
  /// clocks, interval tables, diff stores, schedules, lock/barrier managers.
  /// Transport, service threads (where the fabric has them), and
  /// cumulative statistics survive.  Must only be called between run()
  /// invocations (no compute threads live, no sync operation in flight).
  void reset_arena();

 private:
  friend class DsmNode;

  /// Grows every hosted node's page table to the heap's page count.
  void grow_page_tables();

  DsmConfig config_;
  std::unique_ptr<net::Transport> net_;
  DsmStats stats_;
  SharedHeap heap_;
  /// Indexed by NodeId; non-hosted slots are null in process mode.
  std::vector<std::unique_ptr<DsmNode>> nodes_;
  std::vector<NodeId> local_ids_;
  /// Set while run()'s compute threads are live: the page tables they use
  /// must not be resized or cleared under them.
  std::atomic<bool> running_{false};
};

}  // namespace sdsm::core
