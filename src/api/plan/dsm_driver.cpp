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

/// The shared allocations of one page-protocol run, and the phases every
/// node's strategy (PageDsm::Node) runs over them.
template <typename T>
struct PageDsm {
  /// One node's strategy object and per-node state.
  struct Node : NodeTally {
    Node(PageDsm& run, core::DsmNode& self)
        : run(run), self(self), irregular(self), accum(run.n),
          touches(run.nprocs) {}

    void rebuild(int /*global_step*/) { run.rebuild(*this); }
    void execute_step(int /*global_step*/) { run.execute_step(*this); }
    bool finish_step(int global_step, bool last) {
      return run.finish_step(*this, global_step, last);
    }
    void record_checksum() {
      const part::Range mine = run.spec.owner_range[self.id()];
      account.checksum = run.spec.checksum(std::span<const T>(
          self.ptr(run.x) + mine.begin, static_cast<std::size_t>(mine.size())));
    }

    PageDsm& run;
    core::DsmNode& self;
    TmkIrregularNode irregular;
    std::vector<T> accum;  ///< private full-size reduction array (the
                           ///< memory cost the paper notes for Tmk)
    std::vector<std::int64_t> row_offsets;
    std::vector<double> payload;
    std::vector<bool> touches;  ///< chunks this node's items reference
    TournamentPlan plan;        ///< this node's bracket (tournament mode)
  };

  PageDsm(core::DsmRuntime& rt, const KernelSpec<T>& spec,
          RunSession* session, const BackendOptions& options,
          std::uint32_t nprocs, bool optimized)
      : spec(spec),
        session(session),
        options(options),
        nprocs(nprocs),
        n(static_cast<std::size_t>(spec.num_elements)),
        optimized(optimized),
        tournament(options.round_schedule == RoundSchedule::kTournament),
        // Cross-step prefetch rides the Validate machinery, so it exists
        // only on the optimized backend; base demand paging would fetch
        // page-by-page and the prefetch-vs-not traffic-equality contract
        // could not hold.
        prefetch(options.cross_step_prefetch && optimized),
        has_conv(static_cast<bool>(spec.converged)) {
    x = rt.alloc_global<T>(n);
    f = rt.alloc_global<T>(n);

    // Per-node slice of the shared flat index array: int32 refs, each
    // node's CSR rows concatenated.  Page-aligned so one node's WRITE_ALL
    // rebuild never ships a page carrying a neighbour's references; sized
    // by the declared reference capacity, not items * max-arity — the
    // unpadded CSR footprint is exactly what variable-length rows save.
    const std::size_t page_ints = rt.page_size() / sizeof(std::int32_t);
    slice_ints =
        (static_cast<std::size_t>(spec.max_refs_per_node) + page_ints - 1) /
        page_ints * page_ints;
    list = rt.alloc_global<std::int32_t>(slice_ints * nprocs);

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
      touch_rows.reserve(nprocs);
      scratch.reserve(nprocs);
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        touch_rows.push_back(rt.alloc_global<std::uint8_t>(nprocs));
      }
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        scratch.push_back(rt.alloc_global<T>(n));
      }
    }

    // The DSM-published convergence flag: one byte per node in one shared
    // array (the multiple-writer protocol merges the per-node writes).
    // Each node writes its verdict before the step barrier and reads all
    // of them after it, so every node derives the identical termination
    // decision with no side channel.  Allocated only when the kernel
    // converges, so non-converging kernels keep a bit-identical heap
    // layout and traffic.
    if (has_conv) conv_flags = rt.alloc_global<std::uint8_t>(nprocs);

    x_layout = rsd::ArrayLayout{{spec.num_elements}, true};
    list_layout = rsd::ArrayLayout{
        {static_cast<std::int64_t>(slice_ints * nprocs)}, true};
    node_layout = rsd::ArrayLayout{{static_cast<std::int64_t>(nprocs)}, true};
    bindings["X"] = compiler::ArrayBinding{x.addr, sizeof(T), x_layout};
    bindings["F"] = compiler::ArrayBinding{f.addr, sizeof(T), x_layout};
    bindings["LIST"] =
        compiler::ArrayBinding{list.addr, sizeof(std::int32_t), list_layout};
  }

  // The rebuild's whole-state read: issued by validate at the rebuild
  // itself, and — when cross-step prefetch is on — posted identically from
  // the previous step's barrier exit, so the same pages fly the same way
  // and only the wait moves.
  core::AccessDescriptor rebuild_read_desc() const {
    return core::DescriptorBuilder::array(x, x_layout)
        .elements(0, spec.num_elements - 1)
        .schedule(kSchedRebuildRead)
        .read();
  }

  // --- The structure rebuild.  The whole-state read arrives by
  // aggregated Validate (optimized) or demand paging (base); the rebuilt
  // reference list is published through the shared LIST slice.
  void rebuild(Node& st) {
    core::DsmNode& self = st.self;
    const NodeId me = self.id();
    // This node's rebuild ordinal: the schedule-cache index for both the
    // hit (replay) and miss (record) paths.
    const std::int64_t ordinal = st.rebuilds;
    const CachedRebuild* cached = replay_rebuild(session, me, ordinal);
    if (optimized && spec.rebuild_reads_state) {
      // Prefetch the whole state with one aggregated exchange per
      // producer before the structure builder scans it.
      self.validate({rebuild_read_desc()});
    }
    const T* xp = self.ptr(x);
    WorkItems items;
    if (cached != nullptr) {
      if (!optimized && spec.rebuild_reads_state) {
        // Base backend, state-reading builder: on a miss the builder's
        // scan of x demand-fetches every invalid page.  Replaying the
        // structure skips the scan, so walk the pages explicitly — one
        // volatile touch per page — to keep the hit's fault traffic
        // identical to the miss's.
        const auto* xb = reinterpret_cast<const volatile std::byte*>(xp);
        const std::size_t xbytes = n * sizeof(T);
        for (std::size_t off = 0; off < xbytes; off += self.page_size()) {
          (void)xb[off];
        }
      }
      items = cached->items;
      st.account.refs = cached->shape.num_refs;
      st.account.max_row = cached->shape.max_row;
    } else {
      items = spec.build_items(st.irregular, std::span<const T>(xp, n));
      const ItemsShape shape = spec.require_valid_items(items);
      st.account.refs = shape.num_refs;
      st.account.max_row = shape.max_row;
      // Copy: `items` is consumed below.
      record_rebuild(session, me, ordinal,
                     [&] { return CachedRebuild{items, shape, nullptr, {}}; });
    }
    if (optimized) {
      // The whole slice is rewritten: whole-page shipping, no twins.
      // Declaring the write also notifies any schedule watching these
      // indirection pages, exactly as a faulting write would.
      self.validate(
          {core::DescriptorBuilder::array(list, list_layout)
               .elements(static_cast<std::int64_t>(me * slice_ints),
                         static_cast<std::int64_t>((me + 1) * slice_ints) - 1)
               .schedule(kSchedListWrite)
               .write_all()});
    }
    std::int32_t* lp = self.ptr(list) + me * slice_ints;
    std::fill(st.touches.begin(), st.touches.end(), false);
    for (std::size_t k = 0; k < items.refs.size(); ++k) {
      const std::int64_t g = items.refs[k];
      lp[k] = static_cast<std::int32_t>(g);
      st.touches[owner_of(spec.owner_range, g)] = true;
    }
    st.row_offsets = std::move(items.row_offsets);
    st.payload = std::move(items.payload);
    ++st.rebuilds;
    if (tournament) {
      // Publish this node's touch-matrix row; the rebuild barrier below
      // makes every row visible to every node.
      if (optimized) {
        self.validate(
            {core::DescriptorBuilder::array(touch_rows[me], node_layout)
                 .elements(0, nprocs - 1)
                 .schedule(kSchedTouchWrite)
                 .write()});
      }
      std::uint8_t* tp = self.ptr(touch_rows[me]);
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        tp[q] = st.touches[q] ? 1 : 0;
      }
    }
    self.barrier();
    if (tournament) {
      // Read the full matrix (one aggregated fetch per producer under
      // Validate, demand faults on the base backend) and derive the
      // bracket.  Every node sees the identical matrix, so the fused
      // rounds agree globally without any extra coordination.
      if (optimized) {
        std::vector<core::AccessDescriptor> reads;
        for (std::uint32_t q = 0; q < nprocs; ++q) {
          if (q == me) continue;
          reads.push_back(
              core::DescriptorBuilder::array(touch_rows[q], node_layout)
                  .elements(0, nprocs - 1)
                  .schedule(kSchedTouchRead)
                  .read());
        }
        self.validate(reads);
      }
      std::vector<std::uint8_t> matrix(static_cast<std::size_t>(nprocs) *
                                       nprocs);
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        const std::uint8_t* row = self.ptr(touch_rows[q]);
        std::copy(row, row + nprocs, matrix.begin() + q * nprocs);
      }
      st.plan = build_tournament_plan(me, nprocs, spec.owner_range, matrix);
    }
  }

  // --- The computational step.
  // Indirection reads fault in (base) or arrive by compiler-lowered
  // Validate (optimized); the reduction flows through the shared f array
  // under the selected round schedule; the owner update writes the state
  // region in place.
  void execute_step(Node& st) {
    core::DsmNode& self = st.self;
    const NodeId me = self.id();
    const part::Range mine = spec.owner_range[me];
    T* xp = self.ptr(x);
    T* fp = self.ptr(f);
    // The compute loop (the compiled kernel), accumulating privately.
    // Seeded with the reduction identity, NOT zero: for a min-reduction
    // every untouched element — including every element of a node whose
    // frontier is empty — must contribute nothing, and the serial round-0
    // owner write / tournament owner write publish this accumulator
    // verbatim.
    std::fill(st.accum.begin(), st.accum.end(), spec.f_identity);
    const std::int64_t my_ref0 =
        static_cast<std::int64_t>(me) * static_cast<std::int64_t>(slice_ints);
    if (optimized) {
      // Offset-driven bounds: this node's rows occupy the flat range
      // [my_ref0, my_ref0 + refs) of LIST, whatever their lengths (1-based
      // inclusive in the mini-Fortran; empty when refs == 0).
      const compiler::Env env{
          {"MY_REF_START", static_cast<long long>(my_ref0) + 1},
          {"MY_REF_END", static_cast<long long>(my_ref0) +
                             static_cast<long long>(st.account.refs)}};
      self.validate(
          compiler::lower_validate(compiled_validate_stmt(), bindings, env));
    }
    KernelCtx<T> ctx;
    ctx.row_offsets = std::span<const std::int64_t>(st.row_offsets);
    ctx.refs = std::span<const std::int32_t>(self.ptr(list) + my_ref0,
                                             st.account.refs);
    ctx.payload = std::span<const double>(st.payload);
    ctx.x = std::span<const T>(xp, n);
    ctx.f = std::span<T>(st.accum);
    spec.compute(st.irregular, ctx);

    if (!tournament) {
      // Serial rotation pipeline: nprocs rounds, round r updates chunk
      // (me + r) % nprocs in place.  Round 0 is the owner initializing its
      // own chunk (WRITE_ALL); later rounds accumulate (READ&WRITE_ALL)
      // and are skipped for chunks this node's items never touch.
      const auto reduce_desc = [&](std::uint32_t r) {
        const NodeId c = (me + r) % nprocs;
        const part::Range chunk = spec.owner_range[c];
        return core::DescriptorBuilder::array(f, x_layout)
            .elements(chunk.begin, chunk.end - 1)
            .schedule(kSchedReduceBase + c)
            .finish(r == 0 ? core::Access::kWriteAll
                           : core::Access::kReadWriteAll);
      };
      const auto participates = [&](std::uint32_t r) {
        const NodeId c = (me + r) % nprocs;
        return spec.owner_range[c].size() > 0 && (r == 0 || st.touches[c]);
      };
      for (std::uint32_t r = 0; r < nprocs; ++r) {
        if (participates(r)) {
          const NodeId c = (me + r) % nprocs;
          const part::Range chunk = spec.owner_range[c];
          if (optimized) self.validate({reduce_desc(r)});
          if (r == 0) {
            for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
              fp[i] = st.accum[static_cast<std::size_t>(i)];
            }
          } else {
            for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
              fp[i] =
                  spec.combine(fp[i], st.accum[static_cast<std::size_t>(i)]);
            }
          }
        }
        self.barrier();
        // Cross-step prefetch: the schedule is deterministic, so round
        // r+1's chunk — and the diffs its pages need — is final the moment
        // this barrier returns.  Posting the same aggregated requests the
        // next validate would post moves their flight time under the
        // validate's own bookkeeping; the traffic is message-for-message
        // identical either way.
        if (prefetch && r + 1 < nprocs && participates(r + 1)) {
          self.post_validate_prefetch({reduce_desc(r + 1)});
        }
      }
    } else {
      // Tournament schedule: ceil(log2(contributors)) fused rounds.  In
      // round k every loser publishes its running partial for its chunk
      // into its own scratch slice, the barrier makes the publishes
      // visible, and every winner combines its partner's partial into its
      // private accumulator.  After the last round each chunk's total sits
      // with its owner, which alone writes f.
      const TournamentPlan& plan = st.plan;
      const auto combine_descs = [&](int k) {
        std::vector<core::AccessDescriptor> descs;
        for (const RoundOp& op : plan.combine[static_cast<std::size_t>(k)]) {
          descs.push_back(
              core::DescriptorBuilder::array(scratch[op.partner], x_layout)
                  .elements(op.range.begin, op.range.end - 1)
                  .schedule(kSchedScratchReadBase + op.chunk)
                  .read());
        }
        return descs;
      };
      for (int k = 0; k < plan.rounds; ++k) {
        const auto& pubs = plan.publish[static_cast<std::size_t>(k)];
        if (!pubs.empty()) {
          if (optimized) {
            std::vector<core::AccessDescriptor> writes;
            for (const RoundOp& op : pubs) {
              writes.push_back(
                  core::DescriptorBuilder::array(scratch[me], x_layout)
                      .elements(op.range.begin, op.range.end - 1)
                      .schedule(kSchedScratchPubBase + op.chunk)
                      .write_all());
            }
            self.validate(writes);
          }
          T* sp = self.ptr(scratch[me]);
          for (const RoundOp& op : pubs) {
            for (std::int64_t i = op.range.begin; i < op.range.end; ++i) {
              sp[i] = st.accum[static_cast<std::size_t>(i)];
            }
          }
        }
        self.barrier();
        const auto& combs = plan.combine[static_cast<std::size_t>(k)];
        if (!combs.empty()) {
          // The partners' partials are final at the barrier exit, so their
          // aggregated requests can fly while the validate below plans
          // (and while this node runs its own publishes' copies next round
          // on the base path).
          const auto descs = combine_descs(k);
          if (prefetch) self.post_validate_prefetch(descs);
          if (optimized) self.validate(descs);
          for (const RoundOp& op : combs) {
            const T* sp = self.ptr(scratch[op.partner]);
            for (std::int64_t i = op.range.begin; i < op.range.end; ++i) {
              st.accum[static_cast<std::size_t>(i)] =
                  spec.combine(st.accum[static_cast<std::size_t>(i)], sp[i]);
            }
          }
        }
      }
      // Owner-only write of the shared reduction array; everyone else's
      // contribution already arrived through the bracket.  No barrier
      // needed before the update below reads it — the write is local — and
      // the step barrier publishes it for the next compute validate.
      if (mine.size() > 0) {
        if (optimized) {
          self.validate({core::DescriptorBuilder::array(f, x_layout)
                             .elements(mine.begin, mine.end - 1)
                             .schedule(kSchedReduceBase + me)
                             .write_all()});
        }
        for (std::int64_t i = mine.begin; i < mine.end; ++i) {
          fp[i] = st.accum[static_cast<std::size_t>(i)];
        }
      }
    }

    // Owner update of the state from the reduced contributions.
    if (spec.update) {
      if (optimized && mine.size() > 0) {
        self.validate({core::DescriptorBuilder::array(f, x_layout)
                           .elements(mine.begin, mine.end - 1)
                           .schedule(kSchedUpdateRead)
                           .read(),
                       core::DescriptorBuilder::array(x, x_layout)
                           .elements(mine.begin, mine.end - 1)
                           .schedule(kSchedUpdateWrite)
                           .read_write_all()});
      }
      spec.update(
          std::span<T>(xp + mine.begin, static_cast<std::size_t>(mine.size())),
          std::span<const T>(fp + mine.begin,
                             static_cast<std::size_t>(mine.size())));
    }
  }

  bool finish_step(Node& st, int global_step, bool last) {
    core::DsmNode& self = st.self;
    const NodeId me = self.id();
    // Convergence verdict: published into this node's flag byte before the
    // step barrier, so the barrier's write notices carry every node's
    // verdict to every node.
    if (has_conv) {
      const part::Range mine = spec.owner_range[me];
      const bool mine_done = spec.converged(
          st.irregular,
          std::span<const T>(self.ptr(x) + mine.begin,
                             static_cast<std::size_t>(mine.size())));
      if (optimized) {
        self.validate({core::DescriptorBuilder::array(conv_flags, node_layout)
                           .elements(me, me)
                           .schedule(kSchedConvWrite)
                           .write()});
      }
      self.ptr(conv_flags)[me] = mine_done ? 1 : 0;
    }
    self.barrier();

    // Cross-step prefetch of the next rebuild's whole-state read: at the
    // barrier exit the state is final (nothing writes x until the next
    // update phase), so the aggregated requests the rebuild validate would
    // post can fly under the convergence check below.  If that check ends
    // the loop, the post is left in flight and settled by the teardown
    // drain (DsmRuntime::run) — the one case where prefetching costs
    // traffic a non-prefetched run would not pay.
    if (prefetch && spec.rebuild_reads_state && !last &&
        spec.rebuild_needed(global_step + 1)) {
      self.post_validate_prefetch({rebuild_read_desc()});
    }

    // Read every node's verdict (aggregated fetch under Validate, demand
    // faults on the base backend); all nodes see the identical flags, so
    // the loop terminates globally or not at all.
    if (!has_conv) return false;
    if (optimized) {
      self.validate({core::DescriptorBuilder::array(conv_flags, node_layout)
                         .elements(0, nprocs - 1)
                         .schedule(kSchedConvRead)
                         .read()});
    }
    const std::uint8_t* cp = self.ptr(conv_flags);
    bool all = true;
    for (std::uint32_t q = 0; q < nprocs; ++q) all = all && cp[q] != 0;
    return all;
  }

  const KernelSpec<T>& spec;
  RunSession* session;
  const BackendOptions& options;
  const std::uint32_t nprocs;
  const std::size_t n;
  const bool optimized;
  const bool tournament;
  const bool prefetch;
  const bool has_conv;
  std::size_t slice_ints = 0;
  core::GlobalArray<T> x{}, f{};
  core::GlobalArray<std::int32_t> list{};
  std::vector<core::GlobalArray<std::uint8_t>> touch_rows;
  std::vector<core::GlobalArray<T>> scratch;
  core::GlobalArray<std::uint8_t> conv_flags{};
  rsd::ArrayLayout x_layout, list_layout;
  rsd::ArrayLayout node_layout;  ///< one entry per node: touch rows, flags
  compiler::Bindings bindings;
};

template <typename T>
KernelResult run_page_dsm(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                          RunSession* session, const BackendOptions& options,
                          std::uint32_t nprocs, Backend kind) {
  const DsmStats::Snapshot stats_entry = rt.stats().snapshot();
  PageDsm<T> run(rt, spec, session, options, nprocs,
                 /*optimized=*/kind == Backend::kTmkOptimized);
  std::vector<std::unique_ptr<typename PageDsm<T>::Node>> nodes(nprocs);

  // Node 0 seeds the shared state before the (un)timed sections.
  rt.run([&](core::DsmNode& self) {
    nodes[self.id()] = std::make_unique<typename PageDsm<T>::Node>(run, self);
    if (self.id() == 0) {
      std::copy(spec.initial_state.begin(), spec.initial_state.end(),
                self.ptr(run.x));
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
  std::vector<rsd::ArrayLayout> slice_layout(nprocs);
  for (std::uint32_t q = 0; q < nprocs; ++q) {
    const std::int64_t sz = spec.owner_range[q].size();
    if (sz > 0) {
      xs[q] = rt.alloc_global<T>(static_cast<std::size_t>(sz));
      slice_layout[q] = rsd::ArrayLayout{{sz}, true};
    }
  }
  const auto slice = [&](NodeId q) {
    return core::DescriptorBuilder::array(xs[q], slice_layout[q])
        .elements(0, spec.owner_range[q].size() - 1);
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
    // Rebuild state read: one aggregated Validate over every other owner's
    // slice — request + reply per producer, the same 2(N-1) messages per
    // node the optimized Tmk rebuild pays — then a local copy into the
    // contiguous view the structure builder expects.
    auto read_state = [&, me](std::span<T> all) {
      std::vector<core::AccessDescriptor> reads;
      for (std::uint32_t q = 0; q < nprocs; ++q) {
        if (q == me || spec.owner_range[q].size() == 0) continue;
        reads.push_back(slice(q).schedule(kSchedRebuildRead).read());
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
      self.validate({slice(me).schedule(kSchedUpdateWrite).read_write_all()});
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
      self.validate({slice(me).schedule(kSchedUpdateWrite).write_all()});
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
