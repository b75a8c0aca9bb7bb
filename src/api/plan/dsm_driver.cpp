#include "src/api/plan/dsm_driver.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/api/plan/dsm_exchange.hpp"
#include "src/api/plan/fold.hpp"
#include "src/api/plan/inspector_gather.hpp"
#include "src/api/plan/step_driver.hpp"
#include "src/common/timer.hpp"
#include "src/common/vec.hpp"
#include "src/compiler/lowering.hpp"
#include "src/compiler/parser.hpp"
#include "src/compiler/transform.hpp"
#include "src/core/descriptor.hpp"

namespace sdsm::api::plan {

namespace {

// Hand-issued schedule ids, disjoint from the compiled kernel's (which
// start at 1) and from each other: rebuild prefetch, list rewrite, the
// per-chunk pipelined reduction, the owner-update pair, and the tournament
// schedule's touch-matrix and scratch traffic.
constexpr std::uint32_t kSchedRebuildRead = 100;
constexpr std::uint32_t kSchedListWrite = 101;
constexpr std::uint32_t kSchedTouchWrite = 102;
constexpr std::uint32_t kSchedTouchRead = 103;
constexpr std::uint32_t kSchedConvWrite = 104;
constexpr std::uint32_t kSchedConvRead = 105;
constexpr std::uint32_t kSchedReduceBase = 1000;   // + chunk owner
constexpr std::uint32_t kSchedUpdateRead = 2000;
constexpr std::uint32_t kSchedUpdateWrite = 2001;
constexpr std::uint32_t kSchedScratchPubBase = 3000;   // + chunk owner
constexpr std::uint32_t kSchedScratchReadBase = 4000;  // + chunk owner

// The generic irregular kernel in the repository's mini-Fortran.  Every
// KernelSpec has this shape: the node's CSR rows are concatenated into its
// slice of the shared flat index array LIST, so one offset-driven scan
// J = MY_REF_START .. MY_REF_END walks every reference of every row —
// rows of any length, no K stride, no padding.  Running it through the
// real front-end — parse, section analysis, reduction privatization,
// Validate insertion — reproduces the paper's tool path for every
// workload; only the bindings (array addresses, per-node ref bounds)
// differ per kernel and per node.  Row boundaries are irrelevant to the
// communication set (they partition the same references), so they stay in
// the node-private row_offsets the C++ body receives.
constexpr const char* kIrregularKernelSource =
    "SUBROUTINE IRREGULARKERNEL\n"
    "  SHARED REAL X(N), F(N)\n"
    "  SHARED INTEGER LIST(L)\n"
    "  INTEGER J, Q\n"
    "  REAL D\n"
    "DO J = MY_REF_START, MY_REF_END\n"
    "  Q = LIST(J)\n"
    "  D = X(Q)\n"
    "  F(Q) = F(Q) + D\n"
    "ENDDO\n"
    "END\n";

/// The Validate statement the transform inserts for the generic irregular
/// kernel, compiled once per process.
const compiler::Stmt& compiled_validate_stmt() {
  static const compiler::TransformResult* result = [] {
    auto* r = new compiler::TransformResult(
        compiler::transform(compiler::parse(kIrregularKernelSource)));
    SDSM_REQUIRE(r->validates_inserted == 1);
    return r;
  }();
  return *result->transformed.units[0].body[0];
}

using TmkIrregularNode = NodeHandle<core::DsmNode>;

// ---------------------------------------------------------------------------
// Tournament (round-robin pairing) reduction schedule.
//
// The serial rotation pipeline orders each chunk's contributions as one
// read-modify-write chain through the shared f array: nprocs rounds, one
// barrier each.  The tournament instead pairs a chunk's contributors off
// and combines partial sums pairwise through per-node scratch slices,
// halving the field every round; only the chunk's owner ever writes f.
// Rounds of different chunks never conflict (a node publishes only to its
// own scratch slice, and each pair reads a distinct loser), so one global
// barrier fuses every chunk's round k, and the per-step barrier count
// drops from nprocs to ceil(log2(max contributors per chunk)).
// ---------------------------------------------------------------------------

/// One node's work in one fused round, for one chunk: publish copies the
/// private partial for `range` into this node's scratch slice; combine
/// reads `partner`'s published partial and adds it into the private one.
struct RoundOp {
  part::Range range;   ///< the chunk's element range in x/f space
  NodeId chunk = 0;    ///< chunk owner (names the schedule id)
  NodeId partner = 0;  ///< combine only: whose scratch slice to read
};

struct TournamentPlan {
  int rounds = 0;  ///< global fused-round count (max over chunks)
  std::vector<std::vector<RoundOp>> publish;  ///< [round] -> losers' copies
  std::vector<std::vector<RoundOp>> combine;  ///< [round] -> winners' adds
};

/// Derives node `me`'s bracket from the global touch matrix
/// (touch[w * nprocs + c] != 0 iff node w's items reference chunk c).
/// Every node runs this on the identical matrix, so all brackets agree.
/// Contributors are ordered owner-first, then in the serial schedule's
/// accumulation order, making the pairing deterministic.
///
/// All-zero rows are first-class: a node with an empty frontier
/// contributes to no chunk, so it appears in no contributor list except
/// as the (unconditional) owner seed of its own chunk, and an all-zero
/// MATRIX — every node's frontier empty, e.g. the steps after a BFS
/// exhausts a component — degenerates to zero fused rounds, every chunk
/// reduced by its owner alone.  The round count is a pure function of the
/// shared matrix, so empty rows can never desynchronize the per-round
/// barriers.
TournamentPlan build_tournament_plan(
    NodeId me, std::uint32_t nprocs,
    const std::vector<part::Range>& owner_range,
    const std::vector<std::uint8_t>& touch) {
  TournamentPlan plan;
  std::vector<std::vector<NodeId>> contributors(nprocs);
  for (NodeId c = 0; c < nprocs; ++c) {
    if (owner_range[c].size() == 0) continue;
    auto& cs = contributors[c];
    cs.push_back(c);  // the owner seeds the chunk whether or not it touches
    for (std::uint32_t d = 1; d < nprocs; ++d) {
      const NodeId w = (c + nprocs - d) % nprocs;
      if (touch[w * nprocs + c] != 0) cs.push_back(w);
    }
    int r = 0;
    while ((std::size_t{1} << r) < cs.size()) ++r;
    plan.rounds = std::max(plan.rounds, r);
  }
  plan.publish.resize(static_cast<std::size_t>(plan.rounds));
  plan.combine.resize(static_cast<std::size_t>(plan.rounds));
  for (NodeId c = 0; c < nprocs; ++c) {
    const auto& cs = contributors[c];
    for (int k = 0; (std::size_t{1} << k) < cs.size(); ++k) {
      const std::size_t step = std::size_t{1} << k;
      for (std::size_t j = 0; j + step < cs.size(); j += 2 * step) {
        if (cs[j + step] == me) {
          plan.publish[k].push_back(RoundOp{owner_range[c], c, cs[j]});
        }
        if (cs[j] == me) {
          plan.combine[k].push_back(RoundOp{owner_range[c], c, cs[j + step]});
        }
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// run_strategies: the one runner of every DSM-substrate backend.
// ---------------------------------------------------------------------------

/// Runs the warmup and timed sections over each hosted node's strategy
/// (a NodeTally with the StepDriver phases plus record_checksum()), and
/// folds the result.
///
/// All statistics are interval-scoped by snapshot subtraction: a shared
/// runtime's cumulative counters survive each job, and everything reported
/// is a delta from the post-warmup snapshot, so a warm shared runtime's
/// prior-job counters never leak into this job's result.
///
/// Process mode needs a consistent cut at both snapshot points: each
/// worker snapshots its own counters, but without a fence a fast peer's
/// first timed-section diff request could be served by this worker's
/// service thread *before* the snapshot, landing the reply in the warm
/// delta while a threaded run (which snapshots globally after join)
/// counts it timed-side — breaking the bit-exact parity between the
/// modes.  The fence is uncounted control traffic, so the counters
/// themselves are unchanged.  Threads mode takes no fence: its snapshot
/// is already a perfect cut, and a serial loop over hosted nodes would
/// deadlock the rendezvous.  (The end-of-timed fence additionally orders
/// the post-barrier checksum's boundary-page fetches — and the replies
/// peers consumed — before every snapshot.)
template <typename T, typename Strategy>
KernelResult run_strategies(
    core::DsmRuntime& rt, const KernelSpec<T>& spec, Backend kind,
    const DsmStats::Snapshot& stats_entry,
    const std::vector<std::unique_ptr<Strategy>>& nodes) {
  const auto fence = [&rt] {
    if (rt.config().mode == DeployMode::kProcesses) {
      for (const NodeId q : rt.local_ids()) rt.node(q).quiesce_fence();
    }
  };
  // Warmup (untimed; one-time costs such as the first Read_indices scan of
  // a static list land here, as in the paper's first iteration).
  if (spec.warmup_steps > 0) {
    rt.run([&](core::DsmNode& self) {
      drive_steps(spec, *nodes[self.id()], spec.warmup_steps, 0);
    });
  }
  const double warm_scan_s =
      static_cast<double>((rt.stats().snapshot() - stats_entry).scan_ns) /
      1e9;
  const DsmStats::Snapshot stats_warm = rt.stats().snapshot();
  const net::NetStats::Snapshot net_warm = rt.network().stats().snapshot();
  fence();
  // Per-node aggregation below covers the locally hosted nodes: all of
  // them in threads mode; in process mode each worker reports its own and
  // the launcher sums/maxes across workers.  Steps and rebuilds are
  // globally uniform, so any hosted representative stands for them.
  const NodeId rep = rt.first_local_node();
  const std::int64_t warm_steps_run = nodes[rep]->steps_run;
  for (const NodeId q : rt.local_ids()) nodes[q]->timed = true;

  const Timer wall;
  rt.run([&](core::DsmNode& self) {
    Strategy& node = *nodes[self.id()];
    drive_steps(spec, node, spec.num_steps, spec.warmup_steps);
    node.record_checksum();
  });
  fence();
  const DsmStats::Snapshot timed = rt.stats().snapshot() - stats_warm;
  const net::NetStats::Snapshot net_timed =
      rt.network().stats().snapshot() - net_warm;

  KernelResult res;
  res.backend = kind;
  res.seconds = wall.elapsed_s();
  res.messages = net_timed.messages();
  res.megabytes = net_timed.megabytes();
  res.bytes = net_timed.bytes();
  double insp = 0;
  std::vector<NodeAccount> accounts;
  accounts.reserve(rt.num_local_nodes());
  for (const NodeId q : rt.local_ids()) {
    insp += nodes[q]->inspector_seconds;
    accounts.push_back(nodes[q]->account);
  }
  fold_accounts(res, accounts);
  // Structure-currency overhead, per node: inspector time (the
  // inspector-gather strategy) plus Read_indices scans (the page protocol).
  res.overhead_seconds =
      insp / rt.num_local_nodes() +
      (warm_scan_s + static_cast<double>(timed.scan_ns) / 1e9) /
          rt.num_local_nodes();
  res.diff_create_seconds =
      static_cast<double>(timed.diff_create_ns) / 1e9 / rt.num_local_nodes();
  res.diff_apply_seconds =
      static_cast<double>(timed.diff_apply_ns) / 1e9 / rt.num_local_nodes();
  res.rebuilds = nodes[rep]->rebuilds;
  res.steps_run = nodes[rep]->steps_run - warm_steps_run;
  // Every node executes the same global barriers, so the per-node count is
  // the total divided by the hosted-node count (the stats only see hosted
  // nodes); the delta is taken from the post-warmup snapshot, so this
  // covers exactly the timed steps actually executed (fewer than num_steps
  // when the convergence flag ended the loop early).
  if (res.steps_run > 0) {
    res.barriers_per_step = static_cast<double>(timed.barriers) /
                            rt.num_local_nodes() /
                            static_cast<double>(res.steps_run);
  }
  res.tmk = timed;
  return res;
}

// ---------------------------------------------------------------------------
// run_page_dsm: both regions under the page protocol (kTmkBase and
// kTmkOptimized).
// ---------------------------------------------------------------------------

/// The shared allocations of one page-protocol run.
template <typename T>
struct PageHeap {
  core::GlobalArray<T> x, f;
  core::GlobalArray<std::int32_t> list;  ///< one slice_ints slice per node
  std::size_t slice_ints = 0;
  std::vector<core::GlobalArray<std::uint8_t>> touch_rows;  ///< tournament
  std::vector<core::GlobalArray<T>> scratch;                ///< tournament
  core::GlobalArray<std::uint8_t> conv_flags;  ///< converging kernels
  compiler::Bindings bindings;  ///< X, F and LIST for the compiled Validate
};

/// The elements [r.begin, r.end) of `a`, in the array's own dense layout.
template <typename U>
core::DescriptorBuilder dense(const core::GlobalArray<U>& a, part::Range r,
                              std::uint32_t sched) {
  core::DescriptorBuilder b = core::DescriptorBuilder::array(a);
  b.elements(r.begin, r.end - 1).schedule(sched);
  return b;  // by name, so it is not copied out of the chain's reference
}

/// The compiler's binding of a shared array, in the same dense layout.
template <typename U>
compiler::ArrayBinding binding_of(const core::GlobalArray<U>& a) {
  return {a.addr, sizeof(U), {{static_cast<std::int64_t>(a.count)}, true}};
}

/// Allocates the run's shared arrays.  The order (x, f, list, then the
/// tournament's touch rows and scratch, then the convergence flags) fixes
/// the heap layout, and the heap layout is traffic.
template <typename T>
PageHeap<T> alloc_page_heap(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                            std::uint32_t nprocs, bool tournament) {
  const auto n = static_cast<std::size_t>(spec.num_elements);
  PageHeap<T> heap;
  heap.x = rt.alloc_global<T>(n);
  heap.f = rt.alloc_global<T>(n);

  // Per-node slice of the shared flat index array: int32 refs, each
  // node's CSR rows concatenated.  Page-aligned so one node's WRITE_ALL
  // rebuild never ships a page carrying a neighbour's references; sized
  // by the declared reference capacity, not items * max-arity — the
  // unpadded CSR footprint is exactly what variable-length rows save.
  const std::size_t page_ints = rt.page_size() / sizeof(std::int32_t);
  heap.slice_ints =
      (static_cast<std::size_t>(spec.max_refs_per_node) + page_ints - 1) /
      page_ints * page_ints;
  heap.list = rt.alloc_global<std::int32_t>(heap.slice_ints * nprocs);

  // Tournament state, absent in serial mode so the serial schedule's
  // heap layout and traffic stay bit-identical to the committed
  // baseline: each node's touch-matrix row (published at every rebuild
  // so all nodes derive the same pairing) and its scratch slice (where
  // losers publish partial sums for winners to combine).  Separate
  // page-aligned allocations, so no slice ever shares a page with a
  // neighbour's.  Footprint: the slices add nprocs * n * sizeof(T) of
  // shared region — the same full-size-per-node memory/latency trade the
  // paper notes for Tmk's private reduction arrays, paid again in shared
  // space; a run near region_bytes under the serial schedule needs a
  // larger region before flipping the tournament on.  (A node can
  // publish up to every chunk it contributes to, so per-slice demand is
  // only bounded by n; packing touched chunks would need a per-rebuild
  // layout + remap.)
  if (tournament) {
    for (std::uint32_t q = 0; q < nprocs; ++q) {
      heap.touch_rows.push_back(rt.alloc_global<std::uint8_t>(nprocs));
    }
    for (std::uint32_t q = 0; q < nprocs; ++q) {
      heap.scratch.push_back(rt.alloc_global<T>(n));
    }
  }

  // The DSM-published convergence flag: one byte per node in one shared
  // array (the multiple-writer protocol merges the per-node writes).
  // Each node writes its verdict before the step barrier and reads all
  // of them after it, so every node derives the identical termination
  // decision with no side channel.  Allocated only when the kernel
  // converges, so non-converging kernels keep a bit-identical heap
  // layout and traffic.
  if (spec.converged) heap.conv_flags = rt.alloc_global<std::uint8_t>(nprocs);

  heap.bindings["X"] = binding_of(heap.x);
  heap.bindings["F"] = binding_of(heap.f);
  heap.bindings["LIST"] = binding_of(heap.list);
  return heap;
}

/// One node's page-protocol strategy.  kTmkBase runs kTmkOptimized's code
/// minus its declarations: every access the compiler's Validate covers
/// goes through declare(), which validates on the optimized backend and
/// does nothing on the base one, whose demand faults fetch the same pages.
template <typename T>
class PageProtocol : public NodeTally {
 public:
  PageProtocol(const KernelSpec<T>& spec, const PageHeap<T>& heap,
               RunSession* session, core::DsmNode& self, bool optimized,
               bool tournament, bool prefetch)
      : spec_(spec),
        heap_(heap),
        session_(session),
        self_(self),
        irregular_(self),
        me_(self.id()),
        nprocs_(self.num_nodes()),
        n_(static_cast<std::size_t>(spec.num_elements)),
        mine_(spec.owner_range[me_]),
        ref0_(static_cast<std::int64_t>(me_ * heap.slice_ints)),
        optimized_(optimized),
        tournament_(tournament),
        prefetch_(prefetch),
        accum_(n_),
        touches_(nprocs_) {}

  // --- The structure rebuild.  The declared state read arrives by
  // Validate (optimized) or demand paging (base); the rebuilt reference
  // list is published through the shared LIST slice.
  void rebuild(int /*global_step*/) {
    // This node's rebuild ordinal: the schedule-cache index for both the
    // hit (replay) and miss (record) paths.
    const std::int64_t ordinal = rebuilds;
    const CachedRebuild* cached = replay_rebuild(session_, me_, ordinal);
    // One aggregated exchange per producer before the builder scans x.
    if (reads_state()) declare({rebuild_read()});
    const T* xp = self_.ptr(heap_.x);
    WorkItems items;
    if (cached != nullptr) {
      if (!optimized_ && reads_state()) {
        // Base backend, state-reading builder: on a miss the builder's
        // scan of the declared range demand-fetches every invalid page.
        // Replaying the structure skips the scan, so walk those pages
        // explicitly — one volatile touch per page — to keep the hit's
        // fault traffic identical to the miss's.
        const part::Range r = rebuild_range();
        const std::size_t page = self_.page_size();
        const auto* xb = reinterpret_cast<const volatile std::byte*>(xp);
        for (auto off = static_cast<std::size_t>(r.begin) * sizeof(T);
             off < static_cast<std::size_t>(r.end) * sizeof(T);
             off = (off / page + 1) * page) {
          (void)xb[off];
        }
      }
      items = cached->items;
      account.refs = cached->shape.num_refs;
      account.max_row = cached->shape.max_row;
    } else {
      items = spec_.build_items(irregular_, std::span<const T>(xp, n_));
      const ItemsShape shape = spec_.require_valid_items(items);
      account.refs = shape.num_refs;
      account.max_row = shape.max_row;
      // Copy: `items` is consumed below.
      record_rebuild(session_, me_, ordinal,
                     [&] { return CachedRebuild{items, shape, nullptr, {}}; });
    }
    // The whole slice is rewritten: whole-page shipping, no twins.
    // Declaring the write also notifies any schedule watching these
    // indirection pages, exactly as a faulting write would.
    const auto slice = static_cast<std::int64_t>(heap_.slice_ints);
    declare({dense(heap_.list, {ref0_, ref0_ + slice}, kSchedListWrite)
                 .write_all()});
    std::int32_t* lp = self_.ptr(heap_.list) + ref0_;
    std::fill(touches_.begin(), touches_.end(), false);
    for (std::size_t k = 0; k < items.refs.size(); ++k) {
      const std::int64_t g = items.refs[k];
      lp[k] = static_cast<std::int32_t>(g);
      touches_[owner_of(spec_.owner_range, g)] = true;
    }
    row_offsets_ = std::move(items.row_offsets);
    payload_ = std::move(items.payload);
    ++rebuilds;
    const part::Range all_nodes{0, nprocs_};
    if (tournament_) {
      // Publish this node's touch-matrix row; the rebuild barrier below
      // makes every row visible to every node.
      declare({dense(heap_.touch_rows[me_], all_nodes, kSchedTouchWrite)
                   .write()});
      std::uint8_t* tp = self_.ptr(heap_.touch_rows[me_]);
      for (std::uint32_t q = 0; q < nprocs_; ++q) tp[q] = touches_[q] ? 1 : 0;
    }
    self_.barrier();
    if (!tournament_) return;
    // Read the full matrix (one aggregated fetch per producer under
    // Validate, demand faults on the base backend) and derive the bracket.
    // Every node sees the identical matrix, so the fused rounds agree
    // globally without any extra coordination.
    std::vector<core::AccessDescriptor> reads;
    for (std::uint32_t q = 0; q < nprocs_; ++q) {
      if (q == me_) continue;
      reads.push_back(
          dense(heap_.touch_rows[q], all_nodes, kSchedTouchRead).read());
    }
    declare(reads);
    std::vector<std::uint8_t> matrix(static_cast<std::size_t>(nprocs_) *
                                     nprocs_);
    for (std::uint32_t q = 0; q < nprocs_; ++q) {
      const std::uint8_t* row = self_.ptr(heap_.touch_rows[q]);
      std::copy(row, row + nprocs_, matrix.begin() + q * nprocs_);
    }
    plan_ = build_tournament_plan(me_, nprocs_, spec_.owner_range, matrix);
  }

  // --- The computational step.
  // Indirection reads fault in (base) or arrive by compiler-lowered
  // Validate (optimized); the reduction flows through the shared f array
  // under the selected round schedule; the owner update writes the state
  // region in place.
  void execute_step(int /*global_step*/) {
    T* xp = self_.ptr(heap_.x);
    T* fp = self_.ptr(heap_.f);
    // The compute loop (the compiled kernel), accumulating privately.
    // Seeded with the reduction identity, NOT zero: for a min-reduction
    // every untouched element — including every element of a node whose
    // frontier is empty — must contribute nothing, and the serial round-0
    // owner write / tournament owner write publish this accumulator
    // verbatim.
    std::fill(accum_.begin(), accum_.end(), spec_.f_identity);
    if (optimized_) {
      // Offset-driven bounds: this node's rows occupy the flat range
      // [ref0, ref0 + refs) of LIST, whatever their lengths (1-based
      // inclusive in the mini-Fortran; empty when refs == 0).  Base skips
      // the lowering, not only the call.
      const compiler::Env env{
          {"MY_REF_START", static_cast<long long>(ref0_) + 1},
          {"MY_REF_END", static_cast<long long>(ref0_) +
                             static_cast<long long>(account.refs)}};
      self_.validate(compiler::lower_validate(compiled_validate_stmt(),
                                              heap_.bindings, env));
    }
    KernelCtx<T> ctx;
    ctx.row_offsets = std::span<const std::int64_t>(row_offsets_);
    ctx.refs = std::span<const std::int32_t>(self_.ptr(heap_.list) + ref0_,
                                             account.refs);
    ctx.payload = std::span<const double>(payload_);
    ctx.x = std::span<const T>(xp, n_);
    ctx.f = std::span<T>(accum_);
    spec_.compute(irregular_, ctx);

    if (tournament_) {
      reduce_tournament(fp);
    } else {
      reduce_serial(fp);
    }

    // Owner update of the state from the reduced contributions.
    if (!spec_.update) return;
    if (mine_.size() > 0) {
      declare({dense(heap_.f, mine_, kSchedUpdateRead).read(),
               dense(heap_.x, mine_, kSchedUpdateWrite).read_write_all()});
    }
    const auto owned = static_cast<std::size_t>(mine_.size());
    spec_.update(std::span<T>(xp + mine_.begin, owned),
                 std::span<const T>(fp + mine_.begin, owned));
  }

  bool finish_step(int global_step, bool last_in_section) {
    // Convergence verdict: published into this node's flag byte before the
    // step barrier, so the barrier's write notices carry every node's
    // verdict to every node.
    if (spec_.converged) {
      const bool mine_done = spec_.converged(irregular_, owned_state());
      declare({dense(heap_.conv_flags, {me_, me_ + 1}, kSchedConvWrite)
                   .write()});
      self_.ptr(heap_.conv_flags)[me_] = mine_done ? 1 : 0;
    }
    self_.barrier();

    // Cross-step prefetch of the next rebuild's state read: at the
    // barrier exit the state is final (nothing writes x until the next
    // update phase), so the aggregated requests the rebuild validate would
    // post can fly under the convergence check below.  If that check ends
    // the loop, the post is left in flight and settled by the teardown
    // drain (DsmRuntime::run) — the one case where prefetching costs
    // traffic a non-prefetched run would not pay.
    if (prefetch_ && reads_state() && !last_in_section &&
        spec_.rebuild_needed(global_step + 1)) {
      declare({rebuild_read()}, /*ahead=*/true);
    }

    // Read every node's verdict (aggregated fetch under Validate, demand
    // faults on the base backend); all nodes see the identical flags, so
    // the loop terminates globally or not at all.
    if (!spec_.converged) return false;
    declare({dense(heap_.conv_flags, {0, nprocs_}, kSchedConvRead).read()});
    const std::uint8_t* cp = self_.ptr(heap_.conv_flags);
    bool all = true;
    for (std::uint32_t q = 0; q < nprocs_; ++q) all = all && cp[q] != 0;
    return all;
  }

  void record_checksum() { account.checksum = spec_.checksum(owned_state()); }

 private:
  /// Declares accesses as the compiler's Validate does: validated on
  /// kTmkOptimized, nothing on kTmkBase.  `ahead` posts the fetches from a
  /// barrier exit instead (cross-step prefetch), for the next validate of
  /// the same pages to complete; it rides the Validate machinery too, so
  /// base demand paging, which fetches page by page, never posts one.
  void declare(const std::vector<core::AccessDescriptor>& descs,
               bool ahead = false) {
    if (!optimized_) return;
    if (ahead) {
      self_.post_validate_prefetch(descs);
    } else {
      self_.validate(descs);
    }
  }

  bool reads_state() const {
    return spec_.rebuild_reads != RebuildReads::kNothing;
  }

  /// The elements of x the builder reads: its own block, or all of x.
  part::Range rebuild_range() const {
    return spec_.rebuild_reads == RebuildReads::kOwnBlock
               ? mine_
               : part::Range{0, spec_.num_elements};
  }

  // The rebuild's state read: declared at the rebuild itself, and — with
  // cross-step prefetch — ahead from the previous step's barrier exit, so
  // the same pages fly the same way and only the wait moves.
  core::AccessDescriptor rebuild_read() const {
    return dense(heap_.x, rebuild_range(), kSchedRebuildRead).read();
  }

  std::span<const T> owned_state() const {
    return {self_.ptr(heap_.x) + mine_.begin,
            static_cast<std::size_t>(mine_.size())};
  }

  // Serial rotation pipeline: nprocs rounds, round r updates chunk
  // (me + r) % nprocs in place.  Round 0 is the owner initializing its
  // own chunk (WRITE_ALL); later rounds accumulate (READ&WRITE_ALL) and
  // are skipped for chunks this node's items never touch.
  void reduce_serial(T* fp) {
    const auto reduce_desc = [&](std::uint32_t r) {
      const NodeId c = (me_ + r) % nprocs_;
      return dense(heap_.f, spec_.owner_range[c], kSchedReduceBase + c)
          .finish(r == 0 ? core::Access::kWriteAll
                         : core::Access::kReadWriteAll);
    };
    const auto participates = [&](std::uint32_t r) {
      const NodeId c = (me_ + r) % nprocs_;
      return spec_.owner_range[c].size() > 0 && (r == 0 || touches_[c]);
    };
    for (std::uint32_t r = 0; r < nprocs_; ++r) {
      if (participates(r)) {
        const part::Range chunk = spec_.owner_range[(me_ + r) % nprocs_];
        declare({reduce_desc(r)});
        if (r == 0) {
          for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
            fp[i] = accum_[static_cast<std::size_t>(i)];
          }
        } else {
          for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
            fp[i] = spec_.combine(fp[i], accum_[static_cast<std::size_t>(i)]);
          }
        }
      }
      self_.barrier();
      // Cross-step prefetch: the schedule is deterministic, so round
      // r+1's chunk — and the diffs its pages need — is final the moment
      // this barrier returns.  Posting the same aggregated requests the
      // next validate would post moves their flight time under the
      // validate's own bookkeeping; the traffic is message-for-message
      // identical either way.
      if (prefetch_ && r + 1 < nprocs_ && participates(r + 1)) {
        declare({reduce_desc(r + 1)}, /*ahead=*/true);
      }
    }
  }

  // Tournament schedule: ceil(log2(contributors)) fused rounds.  In round
  // k every loser publishes its running partial for its chunk into its
  // own scratch slice, the barrier makes the publishes visible, and every
  // winner combines its partner's partial into its private accumulator.
  // After the last round each chunk's total sits with its owner, which
  // alone writes f.
  void reduce_tournament(T* fp) {
    for (int k = 0; k < plan_.rounds; ++k) {
      const auto& pubs = plan_.publish[static_cast<std::size_t>(k)];
      if (!pubs.empty()) {
        std::vector<core::AccessDescriptor> writes;
        for (const RoundOp& op : pubs) {
          writes.push_back(dense(heap_.scratch[me_], op.range,
                                 kSchedScratchPubBase + op.chunk)
                               .write_all());
        }
        declare(writes);
        T* sp = self_.ptr(heap_.scratch[me_]);
        for (const RoundOp& op : pubs) {
          for (std::int64_t i = op.range.begin; i < op.range.end; ++i) {
            sp[i] = accum_[static_cast<std::size_t>(i)];
          }
        }
      }
      self_.barrier();
      const auto& combs = plan_.combine[static_cast<std::size_t>(k)];
      if (combs.empty()) continue;
      // The partners' partials are final at the barrier exit, so their
      // aggregated requests can fly while the validate below plans.
      std::vector<core::AccessDescriptor> reads;
      for (const RoundOp& op : combs) {
        reads.push_back(dense(heap_.scratch[op.partner], op.range,
                              kSchedScratchReadBase + op.chunk)
                            .read());
      }
      if (prefetch_) declare(reads, /*ahead=*/true);
      declare(reads);
      for (const RoundOp& op : combs) {
        const T* sp = self_.ptr(heap_.scratch[op.partner]);
        for (std::int64_t i = op.range.begin; i < op.range.end; ++i) {
          accum_[static_cast<std::size_t>(i)] =
              spec_.combine(accum_[static_cast<std::size_t>(i)], sp[i]);
        }
      }
    }
    // Owner-only write of the shared reduction array; everyone else's
    // contribution already arrived through the bracket.  No barrier
    // needed before the update reads it — the write is local — and the
    // step barrier publishes it for the next compute validate.
    if (mine_.size() == 0) return;
    declare({dense(heap_.f, mine_, kSchedReduceBase + me_).write_all()});
    for (std::int64_t i = mine_.begin; i < mine_.end; ++i) {
      fp[i] = accum_[static_cast<std::size_t>(i)];
    }
  }

  const KernelSpec<T>& spec_;
  const PageHeap<T>& heap_;
  RunSession* const session_;
  core::DsmNode& self_;
  TmkIrregularNode irregular_;
  const NodeId me_;
  const std::uint32_t nprocs_;
  const std::size_t n_;
  const part::Range mine_;   ///< this node's owned block of x and f
  const std::int64_t ref0_;  ///< this node's first LIST index
  const bool optimized_;
  const bool tournament_;
  const bool prefetch_;
  std::vector<T> accum_;  ///< private full-size reduction array (the
                          ///< memory cost the paper notes for Tmk)
  std::vector<std::int64_t> row_offsets_;
  std::vector<double> payload_;
  std::vector<bool> touches_;  ///< chunks this node's items reference
  TournamentPlan plan_;        ///< this node's bracket (tournament mode)
};

template <typename T>
KernelResult run_page_dsm(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                          RunSession* session, const BackendOptions& options,
                          std::uint32_t nprocs, Backend kind) {
  const DsmStats::Snapshot stats_entry = rt.stats().snapshot();
  const bool tournament = options.round_schedule == RoundSchedule::kTournament;
  const PageHeap<T> heap = alloc_page_heap(rt, spec, nprocs, tournament);
  std::vector<std::unique_ptr<PageProtocol<T>>> nodes(nprocs);

  // Node 0 seeds the shared state before the (un)timed sections.
  rt.run([&](core::DsmNode& self) {
    nodes[self.id()] = std::make_unique<PageProtocol<T>>(
        spec, heap, session, self,
        /*optimized=*/kind == Backend::kTmkOptimized, tournament,
        /*prefetch=*/options.cross_step_prefetch);
    if (self.id() == 0) {
      std::copy(spec.initial_state.begin(), spec.initial_state.end(),
                self.ptr(heap.x));
    }
    self.barrier();
  });
  return run_strategies(rt, spec, kind, stats_entry, nodes);
}

// ---------------------------------------------------------------------------
// run_hybrid (kHybrid): the state under the page protocol, the
// indirection reads and reductions under inspector schedules.
// ---------------------------------------------------------------------------

template <typename T>
KernelResult run_hybrid(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                        RunSession* session, const BackendOptions& options,
                        std::uint32_t nprocs) {
  SDSM_REQUIRE_MSG(
      options.coherence == coherence::CoherencePolicy::kStatic,
      "hybrid backend: adaptive coherence is not supported (hybrid runs "
      "under static coherence only)");

  const DsmStats::Snapshot stats_entry = rt.stats().snapshot();

  // The state under the page protocol, laid out as per-node page-aligned
  // slices: every page of the state has exactly one writer — its owner —
  // which makes the owner's WRITE_ALL update twin-free with no
  // boundary-page cross-invalidation.
  std::vector<core::GlobalArray<T>> xs(nprocs);
  for (std::uint32_t q = 0; q < nprocs; ++q) {
    const std::int64_t sz = spec.owner_range[q].size();
    if (sz > 0) xs[q] = rt.alloc_global<T>(static_cast<std::size_t>(sz));
  }
  const auto slice = [&](NodeId q, std::uint32_t sched) {
    return dense(xs[q], {0, spec.owner_range[q].size()}, sched);
  };

  // The indirection under the inspector: same translation table the
  // message driver builds (and caches through the session).
  const std::shared_ptr<const chaos::TranslationTable> table =
      table_for(spec.owner_range, options.table, session);

  // Each hosted node's app-data exchange and kernel-facing handle.  Both
  // persist across sections, so payloads a fast peer sent ahead (the
  // exchange's stash) are never dropped at a section join.
  struct Fabric {
    explicit Fabric(core::DsmNode& self) : exch(self), node(self) {}
    DsmExchange exch;
    TmkIrregularNode node;
  };
  std::vector<std::unique_ptr<Fabric>> fabric(nprocs);
  std::vector<std::unique_ptr<InspectorGather<T>>> nodes(nprocs);

  rt.run([&](core::DsmNode& self) {
    const NodeId me = self.id();
    // Whole-state rebuild read (RebuildReads::kAll only): one aggregated
    // Validate over every other owner's slice — request + reply per
    // producer, the same 2(N-1) messages per node the optimized Tmk
    // rebuild pays — then a local copy into the contiguous view the
    // structure builder expects.
    auto read_state = [&, me](std::span<T> all) {
      std::vector<core::AccessDescriptor> reads;
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        if (q == me || spec.owner_range[q].size() == 0) continue;
        reads.push_back(slice(q, kSchedRebuildRead).read());
      }
      self.validate(reads);
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        const part::Range range = spec.owner_range[q];
        if (range.size() == 0) continue;
        const T* qp = self.ptr(xs[q]);
        std::copy(qp, qp + range.size(), all.begin() + range.begin);
      }
    };
    // Owner publish: READ&WRITE_ALL — the owner's pages are always valid
    // locally, so no fetch; every byte is rewritten, so the step barrier
    // ships whole pages, creates no twins, and piggybacks the write
    // notices on the messages it already sends.
    auto publish = [&, me](std::span<const T> owned) {
      if (owned.empty()) return;
      self.validate({slice(me, kSchedUpdateWrite).read_write_all()});
      std::copy(owned.begin(), owned.end(), self.ptr(xs[me]));
    };
    fabric[me] = std::make_unique<Fabric>(self);
    nodes[me] = std::make_unique<InspectorGather<T>>(
        spec, *table, session, fabric[me]->exch, fabric[me]->node,
        rt.network().stats(), read_state, publish);

    // Seed: each owner writes its own slice (single writer from the first
    // byte); the strategy mirrors the same initial values privately.
    const part::Range mine = spec.owner_range[me];
    if (mine.size() > 0) {
      self.validate({slice(me, kSchedUpdateWrite).write_all()});
      std::copy(spec.initial_state.begin() + mine.begin,
                spec.initial_state.begin() + mine.end, self.ptr(xs[me]));
    }
    self.barrier();
  });
  return run_strategies(rt, spec, Backend::kHybrid, stats_entry, nodes);
}

}  // namespace

// ---------------------------------------------------------------------------
// run_dsm: dispatch on the backend kind.
// ---------------------------------------------------------------------------

template <typename T>
KernelResult run_dsm(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes, Backend kind) {
  spec.require_valid(num_nodes);
  // The runtime may be a warm, long-lived arena (serving path): it must
  // match this backend's shape and have been reset since its last job so
  // allocation addresses — and therefore page layout and traffic — are
  // identical to a fresh one-shot runtime.
  SDSM_REQUIRE(rt.num_nodes() == num_nodes);
  SDSM_REQUIRE(rt.config().transport == options.transport);
  SDSM_REQUIRE(rt.config().write_all_enabled == options.write_all_enabled);
  SDSM_REQUIRE(rt.config().coherence == options.coherence);
  SDSM_REQUIRE_MSG(rt.shared_bytes_used() == 0,
                   "run_dsm: runtime arena not reset");

  if (kind == Backend::kHybrid) {
    return run_hybrid(rt, spec, session, options, num_nodes);
  }
  return run_page_dsm(rt, spec, session, options, num_nodes, kind);
}

// TmkBackend exposes exactly these element types.
template KernelResult run_dsm(core::DsmRuntime&, const KernelSpec<double>&,
                              RunSession*, const BackendOptions&,
                              std::uint32_t, Backend);
template KernelResult run_dsm(core::DsmRuntime&, const KernelSpec<double3>&,
                              RunSession*, const BackendOptions&,
                              std::uint32_t, Backend);

}  // namespace sdsm::api::plan
