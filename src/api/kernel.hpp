// The backend-agnostic irregular-kernel abstraction (sdsm::api).
//
// An irregular kernel, in the sense of the paper's Figure 1, is:
//
//   x : T[num_elements]    state array, block-partitioned over the nodes
//   f : T[num_elements]    per-step contribution (reduction) array
//   items                  this node's slice of the indirection structure:
//                          CSR rows — item i names the element indices
//                          refs[row_offsets[i] .. row_offsets[i+1])
//   compute                the per-step loop body: reads x at the item
//                          references, accumulates into f at the same
//   update                 the owner update x[i] op= f[i] after reduction
//
// Items are variable-arity: each row may name any number of element
// references (a molecule's partner list, a vertex's out-edges, an edge's two
// endpoints).  Fixed arity survives only as the degenerate uniform-offsets
// case (WorkItems::finish_uniform), so edge-shaped kernels stay one-liners
// while CSR workloads — per-vertex adjacency rows, variable-length partner
// lists — need no padding.
//
// A KernelSpec describes that structure once; each backend executes it its
// own way — demand paging (Tmk base), compiler-style Validate prefetch and
// WRITE_ALL pipelined reduction (Tmk optimized), or inspector/executor
// gather/scatter over ghost regions (CHAOS).  The body is written against
// *localized* int32 references: global indices on the DSM backends, local +
// ghost offsets on CHAOS — the remapping CHAOS performs is invisible to the
// kernel author.  Row offsets are node-local positions into the refs span
// and are identical on every backend.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/api/backend.hpp"
#include "src/common/assert.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/common/vec.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::api {

namespace plan {
// Complete upon declaration (fixed underlying type); the full vocabulary
// lives in src/api/plan/plan.hpp and is needed only by hybrid callers.
enum class AccessStrategy : std::uint8_t;
}  // namespace plan

/// Per-node handle the kernel callbacks receive.  Backends implement it
/// over DsmNode / ChaosNode.
class IrregularNode {
 public:
  virtual ~IrregularNode() = default;
  virtual NodeId id() const = 0;
  virtual std::uint32_t num_nodes() const = 0;
  /// Global barrier over all nodes of the backend.
  virtual void barrier() = 0;
};

/// One node's work items, as produced by KernelSpec::build_items: a CSR
/// structure.  Row i references the global elements
/// refs[row_offsets[i] .. row_offsets[i+1]), and may carry one scalar
/// payload (e.g. an edge weight).  `row_offsets` has num_items()+1 entries
/// starting at 0 and ending at refs.size(); an entirely empty WorkItems
/// (both vectors empty) means zero items.
///
/// The empty contract: zero items is a first-class state, not an error.
/// A node whose build_items returns an empty WorkItems (an empty frontier)
/// still participates in every collective phase — it publishes an all-zero
/// touch-matrix row (so the tournament bracket simply never pairs it), its
/// reduction contribution is exactly f_identity, and the CHAOS inspector
/// and exchanges run with zero references — so one node's (or every
/// node's) empty frontier can never wedge a barrier, bracket, or exchange.
struct WorkItems {
  std::vector<std::int64_t> row_offsets;
  std::vector<std::int64_t> refs;
  std::vector<double> payload;  ///< optional, one entry per item

  std::size_t num_items() const {
    return row_offsets.size() <= 1 ? 0 : row_offsets.size() - 1;
  }

  /// Closes the current row: everything appended to `refs` since the last
  /// end_row() (or since the start) becomes one item.  Rows may be empty.
  void end_row() {
    if (row_offsets.empty()) row_offsets.push_back(0);
    row_offsets.push_back(static_cast<std::int64_t>(refs.size()));
  }

  /// Appends one complete row.
  void push_row(std::span<const std::int64_t> row) {
    refs.insert(refs.end(), row.begin(), row.end());
    end_row();
  }
  void push_row(std::initializer_list<std::int64_t> row) {
    push_row(std::span<const std::int64_t>(row.begin(), row.size()));
  }

  /// The degenerate fixed-arity case: `refs` was filled item-major with
  /// exactly `arity` references per item; derive the uniform offsets.
  /// Exclusive with push_row/end_row — mixing the two would silently
  /// recompute the explicit rows' boundaries.
  void finish_uniform(std::size_t arity) {
    SDSM_REQUIRE_MSG(row_offsets.empty(),
                     "WorkItems.finish_uniform: row_offsets already built");
    SDSM_REQUIRE_MSG(arity > 0 && refs.size() % arity == 0,
                     "WorkItems.finish_uniform: refs not a multiple of arity");
    const std::size_t items = refs.size() / arity;
    row_offsets.resize(items + 1);
    for (std::size_t i = 0; i <= items; ++i) {
      row_offsets[i] = static_cast<std::int64_t>(i * arity);
    }
  }
};

/// Shape summary of a validated WorkItems (see
/// KernelSpec::require_valid_items).
struct ItemsShape {
  std::size_t num_items = 0;
  std::size_t num_refs = 0;
  std::size_t max_row = 0;  ///< longest row, in references
};

/// The reduction operator combining per-node contributions into f.  The
/// compute body must accumulate into its (identity-seeded) view of f with
/// the same operator, and KernelSpec::f_identity must be the operator's
/// identity: every backend seeds accumulators, scratch slices, and ghost
/// regions with it, and nodes whose items never touch a chunk contribute
/// exactly the identity there.
///
/// kSum is the paper's force/mass accumulation; kMin is what the
/// frontier-driven graph algorithms reduce with (BFS relaxes tentative
/// distances, label propagation relaxes component labels).
enum class Reduce : std::uint8_t {
  kSum,  ///< f[i] = f[i] + contribution; identity 0
  kMin,  ///< f[i] = min(f[i], contribution); identity = an unreachable max
};

inline double reduce_combine(Reduce op, double a, double b) {
  return op == Reduce::kSum ? a + b : std::min(a, b);
}
inline double3 reduce_combine(Reduce op, const double3& a, const double3& b) {
  if (op == Reduce::kSum) return a + b;
  return double3{std::min(a.x, b.x), std::min(a.y, b.y), std::min(a.z, b.z)};
}

struct RowBuckets;  // degree-bucketed iteration order (src/api/bucketed.hpp)

/// Everything the per-step body sees.  All references are localized by the
/// backend; the body must index `x` and `f` only through `refs` /
/// `refs_of`.  Row offsets are positions into `refs` and are
/// backend-independent.
template <typename T>
struct KernelCtx {
  std::span<const std::int64_t> row_offsets;  ///< num_items()+1 entries
  std::span<const std::int32_t> refs;         ///< localized, row-major
  std::span<const double> payload;  ///< per-item payload (may be empty)
  std::span<const T> x;             ///< state, indexed by localized ref
  std::span<T> f;                   ///< accumulator, same indexing
  /// Non-null iff ExecEngine::kBucketed: the degree buckets built from
  /// `row_offsets` at the last rebuild.  Kernels that iterate through
  /// api::for_each_row pick the bucketed order up automatically; a pure
  /// function of row_offsets, so identical on every backend.
  const RowBuckets* buckets = nullptr;

  std::size_t num_items() const {
    return row_offsets.size() <= 1 ? 0 : row_offsets.size() - 1;
  }
  std::size_t row_size(std::size_t i) const {
    return static_cast<std::size_t>(row_offsets[i + 1] - row_offsets[i]);
  }
  /// The localized references of item i.
  std::span<const std::int32_t> refs_of(std::size_t i) const {
    return refs.subspan(static_cast<std::size_t>(row_offsets[i]),
                        row_size(i));
  }
};

/// The kernel description — the single thing an application writes.
template <typename T>
struct KernelSpec {
  std::string name;

  /// Global problem shape: element count and the contiguous per-node
  /// partition (owner_range[p] is node p's block; ranges must cover
  /// [0, num_elements) in ascending node order).
  std::int64_t num_elements = 0;
  std::vector<part::Range> owner_range;
  std::vector<T> initial_state;  ///< size num_elements

  int num_steps = 1;     ///< timed steps (an upper bound when `converged` set)
  int warmup_steps = 0;  ///< untimed leading steps (one-time costs land here)
  /// Rebuild the indirection structure every this many steps; 0 means the
  /// structure is static and built once before the first step (unless
  /// `rebuild_when` says otherwise).
  int update_interval = 0;
  /// Data-dependent rebuild cadence, consulted alongside `update_interval`
  /// (see rebuild_needed): the structure is rebuilt at global step s when
  /// the fixed cadence fires OR rebuild_when(s) returns true.  Frontier
  /// algorithms return true every step — the item list is the frontier.
  /// Must be deterministic and node-agnostic: every node evaluates it at
  /// every step and all evaluations of the same step must agree, or the
  /// backends' collective rebuild phases (allgather, touch-matrix
  /// republish, schedule refresh) would wedge.  State-dependence belongs
  /// in build_items (via rebuild_reads_state), not here.
  std::function<bool(int global_step)> rebuild_when;

  /// The reduction operator and its identity (see Reduce).  f_identity
  /// MUST be the identity of `reduce` — backends seed every accumulator
  /// with it, including on nodes whose WorkItems are empty.
  Reduce reduce = Reduce::kSum;
  T f_identity = T{};

  std::int64_t max_items_per_node = 0;  ///< row-count bound for the backends
  std::int64_t max_refs_per_node = 0;   ///< flattened-reference bound
  /// True when build_items reads the current state (all_x): the backends
  /// then materialize a coherent global view first (Validate prefetch /
  /// allgather).  Static structures leave it false.
  bool rebuild_reads_state = false;

  /// Declared AccessStrategy for the indirection region under
  /// Backend::kHybrid (ignored by the fixed-assignment backends).  When
  /// unset, the hybrid driver derives the strategy from the write census
  /// of the state layout it would allocate (plan::classify_indirection).
  std::optional<plan::AccessStrategy> indirection_strategy;

  /// True when build_items is a pure function of (node, step-ordinal,
  /// all_x-at-that-ordinal) — i.e. re-running the kernel over the same
  /// initial state reproduces the identical sequence of WorkItems, and the
  /// builder keeps no hidden per-run state.  Only such kernels may have
  /// their rebuild artifacts (item lists, CHAOS schedules, translation
  /// tables) captured and replayed by the serving layer's ScheduleCache.
  /// Kernels whose builders mutate captured state across calls (e.g. a
  /// frontier level counter or a label stash) must leave this false.
  bool structure_cacheable = false;

  /// Builds this node's items from the current global state view (all_x is
  /// empty unless rebuild_reads_state).  Must be deterministic.
  std::function<WorkItems(IrregularNode&, std::span<const T> all_x)>
      build_items;

  /// The per-step loop body.
  std::function<void(IrregularNode&, const KernelCtx<T>&)> compute;

  /// Owner update after the reduction; spans are the node's owned slices of
  /// x and f.  Null means no update phase.
  std::function<void(std::span<T> x_owned, std::span<const T> f_owned)> update;

  /// Convergence test, evaluated on every node after each step's update
  /// over the node's owned slice.  The backends publish every node's
  /// verdict — through a shared flag array on the DSM, an allgather on
  /// CHAOS — and terminate the step loop at the end of the first step
  /// where ALL nodes report true, so termination needs no side channel
  /// and every backend stops after the identical number of steps
  /// (KernelResult::steps_run).  Null means the loop always runs
  /// num_steps.  May be stateful per node (e.g. compare against labels
  /// stashed at the last build), which is why it receives the node.
  std::function<bool(IrregularNode&, std::span<const T> x_owned)> converged;

  /// Order-insensitive digest of an owned slice; backends sum it across
  /// nodes into KernelResult::checksum.
  std::function<double(std::span<const T> x_owned)> checksum;

  /// True when the indirection structure must be (re)built before
  /// executing `global_step` — the single cadence every backend must share
  /// for cross-backend parity.  Step-0 semantics are explicit: the
  /// bootstrap build at step 0 IS that step's rebuild, exactly once, even
  /// when the `update_interval` cadence divides 0 and `rebuild_when(0)`
  /// fires too (a naive "initial build, then check the cadence" runs the
  /// inspector twice at step 0; KernelResult::rebuilds is asserted against
  /// this schedule in test_api).
  bool rebuild_needed(int global_step) const {
    if (global_step == 0) return true;
    if (update_interval > 0 && global_step % update_interval == 0) return true;
    return rebuild_when && rebuild_when(global_step);
  }

  /// The reduction combine, dispatching on `reduce`.
  T combine(const T& a, const T& b) const {
    return reduce_combine(reduce, a, b);
  }

  void require_valid(std::uint32_t nprocs) const {
    SDSM_REQUIRE(num_elements > 0);
    SDSM_REQUIRE(owner_range.size() == nprocs);
    SDSM_REQUIRE(initial_state.size() ==
                 static_cast<std::size_t>(num_elements));
    SDSM_REQUIRE_MSG(max_items_per_node > 0,
                     "KernelSpec.max_items_per_node: must be positive");
    SDSM_REQUIRE_MSG(max_refs_per_node > 0,
                     "KernelSpec.max_refs_per_node: must be positive");
    SDSM_REQUIRE(num_elements < INT32_MAX);  // refs localize to int32
    SDSM_REQUIRE(build_items && compute && checksum);
    std::int64_t covered = 0;
    for (const part::Range& r : owner_range) {
      SDSM_REQUIRE(r.begin == covered && r.end >= r.begin);
      covered = r.end;
    }
    SDSM_REQUIRE(covered == num_elements);
  }

  /// Validates one node's WorkItems against the CSR invariants and this
  /// spec's capacity contract, naming the violating field on failure.
  /// Every backend calls this on every build_items result, so a spec that
  /// passes on one backend can never abort on another.  Normalizes the
  /// zero-item case: empty row_offsets (legal only with empty refs)
  /// becomes {0}, so downstream KernelCtx spans always carry
  /// num_items()+1 entries.
  ItemsShape require_valid_items(WorkItems& items) const {
    ItemsShape shape;
    shape.num_refs = items.refs.size();
    if (items.row_offsets.empty()) {
      SDSM_REQUIRE_MSG(items.refs.empty(),
                       "WorkItems.row_offsets: empty but refs is not");
      SDSM_REQUIRE_MSG(items.payload.empty(),
                       "WorkItems.payload: must be empty or one entry per "
                       "item (not per ref)");
      items.row_offsets.push_back(0);
      return shape;
    }
    SDSM_REQUIRE_MSG(items.row_offsets.front() == 0,
                     "WorkItems.row_offsets: must start at 0");
    SDSM_REQUIRE_MSG(items.row_offsets.back() ==
                         static_cast<std::int64_t>(items.refs.size()),
                     "WorkItems.row_offsets: must end at refs.size()");
    shape.num_items = items.row_offsets.size() - 1;
    for (std::size_t i = 0; i < shape.num_items; ++i) {
      SDSM_REQUIRE_MSG(items.row_offsets[i] <= items.row_offsets[i + 1],
                       "WorkItems.row_offsets: not monotone");
      shape.max_row = std::max(
          shape.max_row, static_cast<std::size_t>(items.row_offsets[i + 1] -
                                                  items.row_offsets[i]));
    }
    SDSM_REQUIRE_MSG(
        shape.num_items <= static_cast<std::size_t>(max_items_per_node),
        "WorkItems.row_offsets: more items than max_items_per_node");
    SDSM_REQUIRE_MSG(
        shape.num_refs <= static_cast<std::size_t>(max_refs_per_node),
        "WorkItems.refs: more references than max_refs_per_node");
    SDSM_REQUIRE_MSG(
        items.payload.empty() || items.payload.size() == shape.num_items,
        "WorkItems.payload: must be empty or one entry per item (not per "
        "ref)");
    for (const std::int64_t g : items.refs) {
      SDSM_REQUIRE_MSG(g >= 0 && g < num_elements,
                       "WorkItems.refs: reference outside [0, num_elements)");
    }
    return shape;
  }
};

/// Result of one kernel execution, uniform across backends.
struct KernelResult {
  Backend backend = Backend::kChaos;
  double checksum = 0;
  double seconds = 0;  ///< timed steps, max over nodes
  std::uint64_t messages = 0;
  double megabytes = 0;
  /// Exact payload-byte count backing `megabytes` (megabytes = bytes/1e6).
  /// Process-mode aggregation sums this integer across workers so the
  /// combined megabytes figure is bit-identical to a threaded run's.
  std::uint64_t bytes = 0;
  /// Per-node overhead of keeping the communication structure current:
  /// inspector time on CHAOS, Read_indices scan time on Tmk.
  double overhead_seconds = 0;
  /// Per-node wall time in the diff hot paths (Tmk backends; zero on
  /// CHAOS): twin-vs-page scans (Diff::create/whole) and Diff::apply
  /// loops.  These are what the scalar/word engine A/B moves — traffic is
  /// byte-identical across engines by construction.
  double diff_create_seconds = 0;
  double diff_apply_seconds = 0;
  std::int64_t rebuilds = 0;  ///< item-list rebuilds (= inspector runs)
  /// Timed steps actually executed: num_steps, or fewer when `converged`
  /// terminated the loop early.  Identical on every backend (the
  /// convergence flag is globally agreed), so it is a parity metric too.
  std::int64_t steps_run = 0;
  /// Shape of the last-built structure, summed/maxed over nodes: total
  /// flattened references and the longest row — the degree-skew audit
  /// trail for CSR workloads.
  std::uint64_t refs = 0;
  std::uint64_t max_row = 0;
  /// Global barriers per timed step, per node (deterministic — the metric
  /// the round schedules are judged by; timing on a shared 1-core box is
  /// not).  The serial schedule pays nprocs reduction rounds plus the step
  /// barrier; the tournament schedule ceil(log2(contributors)) rounds.
  double barriers_per_step = 0;
  /// DSM protocol counters over the timed steps (every counter in
  /// SDSM_DSM_COUNTERS, timers included); all zero on CHAOS.
  DsmStats::Snapshot tmk;
};

/// Owner of global element g under a contiguous partition (binary search).
inline NodeId owner_of(const std::vector<part::Range>& owner_range,
                       std::int64_t g) {
  SDSM_REQUIRE_MSG(!owner_range.empty(),
                   "owner_of: empty owner_range has no owner");
  std::size_t lo = 0, hi = owner_range.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (g < owner_range[mid].end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<NodeId>(lo);
}

}  // namespace sdsm::api
